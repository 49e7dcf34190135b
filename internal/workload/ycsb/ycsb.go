package ycsb

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/workload"
)

// Table is the collection YCSB operates on.
const Table = "usertable"

// Distribution selects the request key distribution.
type Distribution int

const (
	DistZipfian Distribution = iota
	DistUniform
	DistLatest
)

// Spec is a YCSB workload definition: record shape plus operation mix.
// Proportions must sum to 1.
type Spec struct {
	Name        string
	RecordCount int64
	FieldCount  int
	FieldLength int

	ReadProportion            float64
	UpdateProportion          float64
	InsertProportion          float64
	ScanProportion            float64
	ReadModifyWriteProportion float64
	MaxScanLength             int

	Distribution Distribution
}

// The standard YCSB core workloads. WorkloadA (50/50) and WorkloadB
// (95/5) are the two the paper evaluates with.
func baseSpec(name string) Spec {
	return Spec{
		Name:          name,
		RecordCount:   10_000,
		FieldCount:    10,
		FieldLength:   100,
		MaxScanLength: 100,
		Distribution:  DistZipfian,
	}
}

// WorkloadA is the update-heavy mix: 50% reads, 50% updates.
func WorkloadA() Spec {
	s := baseSpec("YCSB-A")
	s.ReadProportion, s.UpdateProportion = 0.5, 0.5
	return s
}

// WorkloadB is the read-mostly mix: 95% reads, 5% updates.
func WorkloadB() Spec {
	s := baseSpec("YCSB-B")
	s.ReadProportion, s.UpdateProportion = 0.95, 0.05
	return s
}

// WorkloadC is read-only.
func WorkloadC() Spec {
	s := baseSpec("YCSB-C")
	s.ReadProportion = 1.0
	return s
}

// WorkloadD is read-latest: 95% reads of recent inserts, 5% inserts.
func WorkloadD() Spec {
	s := baseSpec("YCSB-D")
	s.ReadProportion, s.InsertProportion = 0.95, 0.05
	s.Distribution = DistLatest
	return s
}

// WorkloadE is short scans: 95% scans, 5% inserts.
func WorkloadE() Spec {
	s := baseSpec("YCSB-E")
	s.ScanProportion, s.InsertProportion = 0.95, 0.05
	s.MaxScanLength = 20
	return s
}

// WorkloadF is read-modify-write: 50% reads, 50% RMW.
func WorkloadF() Spec {
	s := baseSpec("YCSB-F")
	s.ReadProportion, s.ReadModifyWriteProportion = 0.5, 0.5
	return s
}

// KeyName formats the _id for item i, as YCSB does ("user<i>").
func KeyName(i int64) string {
	var buf [24]byte
	return string(strconv.AppendInt(append(buf[:0], "user"...), i, 10))
}

// Load bootstraps RecordCount documents onto the replica set
// (pre-existing data, outside the oplog) and creates no secondary
// indexes — YCSB is a pure key-value workload. The records are
// generated once, into the primary's store; the other members start
// from a copy of it (see cluster.ReplicaSet.Bootstrap).
func Load(rs *cluster.ReplicaSet, spec Spec, seed int64) error {
	names := make([]string, spec.FieldCount)
	for f := range names {
		names[f] = fmt.Sprintf("field%d", f)
	}
	return rs.Bootstrap(func(s *storage.Store) error {
		rng := rand.New(rand.NewSource(seed))
		c := s.C(Table)
		// Insert keeps only the record's encoding, so one map serves
		// every record.
		doc := make(storage.D, spec.FieldCount+1)
		for i := int64(0); i < spec.RecordCount; i++ {
			doc["_id"] = KeyName(i)
			for _, name := range names {
				doc[name] = workload.RandString(rng, spec.FieldLength)
			}
			if err := c.Insert(doc); err != nil {
				return err
			}
		}
		return nil
	})
}

// Pool drives a set of closed-loop YCSB client processes against an
// executor. The number of active clients can be changed while running
// (the paper's dynamic-workload experiments), as can the Spec.
type Pool struct {
	env  sim.Env
	exec workload.Executor
	obs  workload.Observer

	mu       sync.Mutex
	spec     Spec
	zipf     Generator
	uni      Generator
	latest   Generator
	active   int // clients allowed to run
	spawned  int
	insertSq atomic.Int64
	paused   bool
}

// NewPool creates a client pool for the given spec. Call SetClients to
// start client processes.
func NewPool(env sim.Env, exec workload.Executor, obs workload.Observer, spec Spec) *Pool {
	if obs == nil {
		obs = workload.NopObserver{}
	}
	pl := &Pool{env: env, exec: exec, obs: obs}
	pl.setSpecLocked(spec)
	pl.insertSq.Store(spec.RecordCount)
	return pl
}

func (pl *Pool) setSpecLocked(spec Spec) {
	pl.spec = spec
	pl.zipf = NewScrambledZipfian(spec.RecordCount)
	pl.uni = NewUniform(spec.RecordCount)
	pl.latest = NewLatest(spec.RecordCount, func() int64 { return pl.insertSq.Load() })
}

// SetSpec switches the operation mix at run time (e.g. YCSB-A ->
// YCSB-B at t=620s in Figure 2). The record population is unchanged.
func (pl *Pool) SetSpec(spec Spec) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	spec.RecordCount = pl.spec.RecordCount // population fixed after Load
	pl.setSpecLocked(spec)
}

// Spec returns the current workload spec.
func (pl *Pool) Spec() Spec {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.spec
}

// SetClients adjusts the number of active closed-loop clients. New
// processes are spawned as needed; surplus ones park until reactivated.
func (pl *Pool) SetClients(n int) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.active = n
	for pl.spawned < n {
		id := pl.spawned
		pl.spawned++
		pl.env.Spawn(fmt.Sprintf("ycsb/client-%d", id), func(p sim.Proc) {
			pl.clientLoop(p, id)
		})
	}
}

// Active returns the number of currently active clients.
func (pl *Pool) Active() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.active
}

func (pl *Pool) clientLoop(p sim.Proc, id int) {
	rng := pl.env.NewRand(fmt.Sprintf("ycsb-client-%d", id))
	for {
		pl.mu.Lock()
		running := id < pl.active
		spec := pl.spec
		pl.mu.Unlock()
		if !running {
			p.Sleep(100 * time.Millisecond)
			continue
		}
		pl.doOne(p, rng, spec)
	}
}

// doOne executes one operation drawn from the mix.
func (pl *Pool) doOne(p sim.Proc, rng *rand.Rand, spec Spec) {
	op := rng.Float64()
	switch {
	case op < spec.ReadProportion:
		pl.doRead(p, rng, spec)
	case op < spec.ReadProportion+spec.UpdateProportion:
		pl.doUpdate(p, rng, spec)
	case op < spec.ReadProportion+spec.UpdateProportion+spec.InsertProportion:
		pl.doInsert(p, rng, spec)
	case op < spec.ReadProportion+spec.UpdateProportion+spec.InsertProportion+spec.ScanProportion:
		pl.doScan(p, rng, spec)
	default:
		pl.doReadModifyWrite(p, rng, spec)
	}
}

func (pl *Pool) nextKey(rng *rand.Rand, spec Spec) string {
	var i int64
	switch spec.Distribution {
	case DistUniform:
		i = pl.uni.Next(rng)
	case DistLatest:
		i = pl.latest.Next(rng)
	default:
		i = pl.zipf.Next(rng)
	}
	return KeyName(i)
}

func (pl *Pool) randomField(rng *rand.Rand, spec Spec) (string, string) {
	f := fmt.Sprintf("field%d", rng.Intn(spec.FieldCount))
	return f, workload.RandString(rng, spec.FieldLength)
}

func (pl *Pool) doRead(p sim.Proc, rng *rand.Rand, spec Spec) {
	key := pl.nextKey(rng, spec)
	_, pref, lat, err := pl.exec.Read(p, func(v cluster.ReadView) (any, error) {
		// A node's own view reads the one field out of the stored
		// encoding rather than decoding the whole record; both cost
		// the same read unit.
		if ev, ok := v.(cluster.EncodedReadView); ok {
			e, found := ev.FindByIDEncoded(Table, key)
			if !found {
				return false, nil
			}
			f, _ := e.Get("field0")
			s, _ := f.(string)
			return s != "", nil
		}
		d, _ := v.FindByID(Table, key)
		return d.Str("field0") != "", nil
	})
	if err == nil {
		pl.obs.ObserveRead(p.Now(), pref, lat, "read")
	}
}

func (pl *Pool) doUpdate(p sim.Proc, rng *rand.Rand, spec Spec) {
	key := pl.nextKey(rng, spec)
	field, val := pl.randomField(rng, spec)
	_, lat, err := pl.exec.Write(p, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Set(Table, key, storage.D{field: val})
	})
	if err == nil {
		pl.obs.ObserveWrite(p.Now(), lat, "update")
	}
}

func (pl *Pool) doInsert(p sim.Proc, rng *rand.Rand, spec Spec) {
	seq := pl.insertSq.Add(1) - 1
	doc := storage.D{"_id": KeyName(seq)}
	for f := 0; f < spec.FieldCount; f++ {
		doc[fmt.Sprintf("field%d", f)] = workload.RandString(rng, spec.FieldLength)
	}
	_, lat, err := pl.exec.Write(p, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert(Table, doc)
	})
	if err == nil {
		pl.obs.ObserveWrite(p.Now(), lat, "insert")
	}
}

func (pl *Pool) doScan(p sim.Proc, rng *rand.Rand, spec Spec) {
	start := pl.nextKey(rng, spec)
	n := 1 + rng.Intn(spec.MaxScanLength)
	_, pref, lat, err := pl.exec.Read(p, func(v cluster.ReadView) (any, error) {
		return v.Find(Table, storage.Filter{"_id": storage.Gte(start)}, n), nil
	})
	if err == nil {
		pl.obs.ObserveRead(p.Now(), pref, lat, "scan")
	}
}

func (pl *Pool) doReadModifyWrite(p sim.Proc, rng *rand.Rand, spec Spec) {
	key := pl.nextKey(rng, spec)
	field, val := pl.randomField(rng, spec)
	_, lat, err := pl.exec.Write(p, func(tx cluster.WriteTxn) (any, error) {
		if _, ok := tx.FindByID(Table, key); !ok {
			return nil, nil
		}
		return nil, tx.Set(Table, key, storage.D{field: val})
	})
	if err == nil {
		pl.obs.ObserveWrite(p.Now(), lat, "rmw")
	}
}
