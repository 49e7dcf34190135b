package ycsb

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/workload"
)

// Table is the collection YCSB operates on.
const Table = "usertable"

// Spec is a YCSB workload definition: record shape plus operation mix.
// A ReadProportion of the operations are point reads and the rest are
// single-field updates, with keys drawn scrambled-zipfian.
type Spec struct {
	Name        string
	RecordCount int64
	FieldCount  int
	FieldLength int

	ReadProportion float64
}

// The two YCSB core workloads the paper evaluates with.
func baseSpec(name string, read float64) Spec {
	return Spec{
		Name:           name,
		RecordCount:    10_000,
		FieldCount:     10,
		FieldLength:    100,
		ReadProportion: read,
	}
}

// WorkloadA is the update-heavy mix: 50% reads, 50% updates.
func WorkloadA() Spec { return baseSpec("YCSB-A", 0.5) }

// WorkloadB is the read-mostly mix: 95% reads, 5% updates.
func WorkloadB() Spec { return baseSpec("YCSB-B", 0.95) }

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

	zipf Generator // over the population, fixed after Load

	mu      sync.Mutex
	spec    Spec
	active  int // clients allowed to run
	spawned int
}

// NewPool creates a client pool for the given spec. Call SetClients to
// start client processes.
func NewPool(env sim.Env, exec workload.Executor, obs workload.Observer, spec Spec) *Pool {
	if obs == nil {
		obs = workload.NopObserver{}
	}
	return &Pool{env: env, exec: exec, obs: obs, zipf: NewScrambledZipfian(spec.RecordCount), spec: spec}
}

// SetSpec switches the operation mix at run time (e.g. YCSB-A ->
// YCSB-B at t=620s in Figure 2). The record population is unchanged.
func (pl *Pool) SetSpec(spec Spec) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	spec.RecordCount = pl.spec.RecordCount // population fixed after Load
	pl.spec = spec
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
	if rng.Float64() < spec.ReadProportion {
		pl.doRead(p, rng, spec)
	} else {
		pl.doUpdate(p, rng, spec)
	}
}

func (pl *Pool) nextKey(rng *rand.Rand) string {
	return KeyName(pl.zipf.Next(rng))
}

func (pl *Pool) randomField(rng *rand.Rand, spec Spec) (string, string) {
	f := fmt.Sprintf("field%d", rng.Intn(spec.FieldCount))
	return f, workload.RandString(rng, spec.FieldLength)
}

func (pl *Pool) doRead(p sim.Proc, rng *rand.Rand, spec Spec) {
	key := pl.nextKey(rng)
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
	key := pl.nextKey(rng)
	field, val := pl.randomField(rng, spec)
	_, lat, err := pl.exec.Write(p, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Set(Table, key, storage.D{field: val})
	})
	if err == nil {
		pl.obs.ObserveWrite(p.Now(), lat, "update")
	}
}
