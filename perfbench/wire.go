package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/wire"
	"decongestant/internal/workload"
	"decongestant/internal/workload/ycsb"
)

// realClusterConfig is replsetd's deployment (cluster.DefaultConfig)
// with every modeled service time and network delay turned off, so the
// real-clock workloads time CPU work rather than sleeps. A negative
// duration makes the modeled Sleep return at once. Checkpoints are
// pushed past any run, so no measured window ever contains one.
func realClusterConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.ReadCost, cfg.WriteCost, cfg.ApplyCost = -1, -1, -1
	cfg.StatusCost, cfg.GetMoreCost = -1, -1
	cfg.CostJitter = -1
	cfg.RTTSameZone, cfg.RTTCrossZoneBase, cfg.RTTCrossZoneSpread = -1, -1, -1
	cfg.RTTJitter = -1
	cfg.CheckpointInterval = 24 * time.Hour
	return cfg
}

// wireDeploy is one replica set plus its wire server, hosted in this
// process, and one wire client connected to it over loopback.
type wireDeploy struct {
	env       *sim.RealtimeEnv
	rs        *cluster.ReplicaSet
	srv       *wire.Server
	serveDone chan error
	wc        *wire.Client
	spec      ycsb.Spec
}

// buildWireDeploy loads the YCSB records, starts the server and
// connects the client. Dial returns once the server has answered the
// topology request, so readiness is an event, not a poll.
func buildWireDeploy(seed int64, spec ycsb.Spec) (*wireDeploy, error) {
	env := sim.NewRealtimeEnv(seed)
	d := &wireDeploy{env: env, rs: cluster.New(env, realClusterConfig()), spec: spec}
	if err := ycsb.Load(d.rs, spec, seed); err != nil {
		env.Shutdown()
		return nil, fmt.Errorf("load: %w", err)
	}
	d.srv = wire.NewServerWith(env, d.rs, nil, wire.ServerConfig{CurrentOp: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.Shutdown()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.serveDone = make(chan error, 1)
	go func() { d.serveDone <- d.srv.Serve(ln) }()
	d.wc, err = wire.Dial(ln.Addr().String())
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	return d, nil
}

// Close stops the client, the server and every replica-set process,
// and waits for the server loop and the processes to return.
func (d *wireDeploy) Close() {
	if d.wc != nil {
		d.wc.Close()
	}
	d.srv.Close()
	<-d.serveDone
	d.env.Shutdown()
}

// buildTimed builds n deployments one after another, keeping the last
// and closing the rest, and returns every build time.
func buildTimed(n int, seed int64, spec ycsb.Spec) (*wireDeploy, []float64, error) {
	var times []float64
	var last *wireDeploy
	for i := 0; i < n; i++ {
		if last != nil {
			last.Close()
		}
		resume := pauseGC()
		start := time.Now()
		d, err := buildWireDeploy(seed, spec)
		resume()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		last = d
	}
	return last, times, nil
}

// recordChecker checks that a read returned the requested record with
// the full YCSB shape: its _id and every field at full length.
type recordChecker struct {
	fields []string
	length int
}

func newRecordChecker(spec ycsb.Spec) recordChecker {
	rc := recordChecker{length: spec.FieldLength}
	for f := 0; f < spec.FieldCount; f++ {
		rc.fields = append(rc.fields, fmt.Sprintf("field%d", f))
	}
	return rc
}

var errMissing = errors.New("record missing")

func (rc recordChecker) check(d storage.Document, found bool, key string) error {
	if !found || d == nil {
		return fmt.Errorf("%s: %w", key, errMissing)
	}
	if id, _ := d["_id"].(string); id != key {
		return fmt.Errorf("asked for %s, got _id %q", key, id)
	}
	if len(d) != len(rc.fields)+1 {
		return fmt.Errorf("%s: %d fields, want %d", key, len(d), len(rc.fields)+1)
	}
	for _, f := range rc.fields {
		if s, ok := d[f].(string); !ok || len(s) != rc.length {
			return fmt.Errorf("%s: field %s malformed", key, f)
		}
	}
	return nil
}

// wireMix is a real-clock traffic mix.
type wireMix struct {
	readFrac      float64 // share of operations that are reads
	secondaryFrac float64 // share of reads a seeded coin sends to a secondary
	uniform       bool    // uniform keys; otherwise YCSB's scrambled Zipfian
}

// clientStats is one closed-loop client's record of a phase.
type clientStats struct {
	reads, writes     []time.Duration
	attempted, failed int64
	firstErr          error
	log               *spanLog
	// acked maps key index * FieldCount + field to the last value an
	// acknowledged update wrote. Each client owns a disjoint set of
	// fields, so its own last acknowledged write is the final value.
	acked map[int64]string
}

// executors are the routes a client's operations take.
type executors struct {
	primary, secondary workload.Executor
}

func fixedExecutors(c *driver.Client) executors {
	return executors{
		primary:   workload.FixedPref{Client: c, Pref: driver.Primary},
		secondary: workload.FixedPref{Client: c, Pref: driver.Secondary},
	}
}

func tracingExecutors(c *driver.Client) executors {
	return executors{
		primary:   tracingExec{client: c, pref: driver.Primary},
		secondary: tracingExec{client: c, pref: driver.Secondary},
	}
}

// phase describes one run of the closed loop.
type phase struct {
	name    string
	exec    executors
	clients int
	until   time.Time // stop after this wall time...
	maxOps  int64     // ...or after this many operations per client (0 = no cap)
	traced  bool
	seed    int64
	acked   []map[int64]string // per-client oracles carried across phases
	done    *atomic.Int64      // completed operations, for the CPU sampler (may be nil)
}

// runPhase drives the mix with phase.clients closed-loop clients, each
// with one outstanding request, and waits for all of them to stop.
func (d *wireDeploy) runPhase(mix wireMix, ph phase) []*clientStats {
	check := newRecordChecker(d.spec)
	stats := make([]*clientStats, ph.clients)
	var wg sync.WaitGroup
	for i := 0; i < ph.clients; i++ {
		st := &clientStats{acked: ph.acked[i]}
		stats[i] = st
		var p sim.Proc = d.env.Adhoc(fmt.Sprintf("perfbench/%s-%d", ph.name, i))
		if ph.traced {
			st.log = &spanLog{}
			p = &tracedProc{Proc: p, log: st.log}
		}
		wg.Add(1)
		go func(id int, p sim.Proc) {
			defer wg.Done()
			d.clientLoop(id, p, mix, ph, check, st)
		}(i, p)
	}
	wg.Wait()
	return stats
}

func (d *wireDeploy) clientLoop(id int, p sim.Proc, mix wireMix, ph phase, check recordChecker, st *clientStats) {
	rng := rand.New(rand.NewSource(ph.seed*1_000_003 + int64(id)))
	var gen ycsb.Generator
	if mix.uniform {
		gen = ycsb.NewUniform(d.spec.RecordCount)
	} else {
		gen = ycsb.NewScrambledZipfian(d.spec.RecordCount)
	}
	var owned []int
	for f := id % ph.clients; f < d.spec.FieldCount; f += ph.clients {
		owned = append(owned, f)
	}
	fail := func(err error) {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
	}
	for {
		if ph.maxOps > 0 && st.attempted >= ph.maxOps {
			return
		}
		st.attempted++
		idx := gen.Next(rng)
		key := ycsb.KeyName(idx)
		if rng.Float64() < mix.readFrac {
			exec := ph.exec.primary
			if mix.secondaryFrac > 0 && rng.Float64() < mix.secondaryFrac {
				exec = ph.exec.secondary
			}
			start := time.Now()
			sp := spanBegin(p, kOpRead)
			_, _, _, err := exec.Read(p, func(v cluster.ReadView) (any, error) {
				doc, ok := v.FindByID(ycsb.Table, key)
				return nil, check.check(doc, ok, key)
			})
			spanEnd(p, sp)
			end := time.Now()
			if err != nil {
				fail(err)
			} else {
				st.reads = append(st.reads, end.Sub(start))
				if ph.done != nil {
					ph.done.Add(1)
				}
			}
			if end.After(ph.until) {
				return
			}
			continue
		}
		if len(owned) == 0 {
			fail(fmt.Errorf("client %d owns no field to update", id))
			return
		}
		f := owned[rng.Intn(len(owned))]
		val := workload.RandString(rng, d.spec.FieldLength)
		field := check.fields[f]
		start := time.Now()
		sp := spanBegin(p, kOpWrite)
		_, _, err := ph.exec.primary.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Set(ycsb.Table, key, storage.D{field: val})
		})
		spanEnd(p, sp)
		end := time.Now()
		if err != nil {
			fail(err)
		} else {
			st.writes = append(st.writes, end.Sub(start))
			if ph.done != nil {
				ph.done.Add(1)
			}
			st.acked[idx*int64(d.spec.FieldCount)+int64(f)] = val
		}
		if end.After(ph.until) {
			return
		}
	}
}

// touchAll reads every record once on each of the given nodes, in
// batches, checking each one; this also fills the per-document encode
// caches the wire server splices into responses.
func (d *wireDeploy) touchAll(nodes []int) error {
	check := newRecordChecker(d.spec)
	p := d.env.Adhoc("perfbench/touch")
	const batch = 500
	ids := make([]string, 0, batch)
	for _, node := range nodes {
		for lo := int64(0); lo < d.spec.RecordCount; lo += batch {
			ids = ids[:0]
			for i := lo; i < lo+batch && i < d.spec.RecordCount; i++ {
				ids = append(ids, ycsb.KeyName(i))
			}
			_, err := d.wc.ExecRead(p, node, func(v cluster.ReadView) (any, error) {
				docs := v.FindManyByID(ycsb.Table, ids)
				if len(docs) != len(ids) {
					return nil, fmt.Errorf("node %d: %d of %d records from %s", node, len(docs), len(ids), ids[0])
				}
				for i, doc := range docs {
					if err := check.check(doc, true, ids[i]); err != nil {
						return nil, fmt.Errorf("node %d: %w", node, err)
					}
				}
				return nil, nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// readBack reads every acknowledged update back from the primary, then
// from each secondary once it has applied the primary's last write.
func (d *wireDeploy) readBack(acked []map[int64]string) (int, []string) {
	fc := int64(d.spec.FieldCount)
	want := map[int64]map[int]string{}
	for _, m := range acked {
		for k, v := range m {
			idx, f := k/fc, int(k%fc)
			if want[idx] == nil {
				want[idx] = map[int]string{}
			}
			want[idx][f] = v
		}
	}
	keys := make([]int64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	check := newRecordChecker(d.spec)
	p := d.env.Adhoc("perfbench/readback")
	after := d.rs.Primary().LastApplied()
	var failures []string
	for _, node := range d.rs.NodeIDs() {
		for lo := 0; lo < len(keys); lo += 500 {
			hi := lo + 500
			if hi > len(keys) {
				hi = len(keys)
			}
			ids := make([]string, 0, hi-lo)
			for _, k := range keys[lo:hi] {
				ids = append(ids, ycsb.KeyName(k))
			}
			_, _, err := d.wc.ExecReadAfter(p, node, after, func(v cluster.ReadView) (any, error) {
				docs := v.FindManyByID(ycsb.Table, ids)
				if len(docs) != len(ids) {
					return nil, fmt.Errorf("%d of %d records", len(docs), len(ids))
				}
				for i, doc := range docs {
					if err := check.check(doc, true, ids[i]); err != nil {
						return nil, err
					}
					for f, v := range want[keys[lo+i]] {
						if got, _ := doc[check.fields[f]].(string); got != v {
							return nil, fmt.Errorf("%s.%s lost an acknowledged update", ids[i], check.fields[f])
						}
					}
				}
				return nil, nil
			})
			if err != nil {
				failures = append(failures, fmt.Sprintf("read-back on node %d: %v", node, err))
				break
			}
		}
	}
	return len(keys), failures
}

// runWireWorkload is a workload's real-clock part. The mix must hold
// updates: the run reads every acknowledged one back.
func runWireWorkload(opts options, spec ycsb.Spec, mix wireMix) (*result, error) {
	spec.RecordCount = opts.size.records
	setups := opts.size.setups
	if opts.trace {
		setups = 1 // setup_s is an end-to-end metric; the traced run skips the repeats
	}
	d, setupTimes, err := buildTimed(setups, opts.seed, spec)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.Close()
		}
	}()

	res := &result{}
	touched := []int{d.rs.PrimaryID()}
	if mix.secondaryFrac > 0 {
		touched = d.rs.NodeIDs()
	}
	if err := d.touchAll(touched); err != nil {
		res.fail("warm-up read of every record: %v", err)
		return res, nil
	}
	clients := min(runtime.NumCPU(), spec.FieldCount)
	acked := make([]map[int64]string, clients)
	for i := range acked {
		acked[i] = map[int64]string{}
	}
	plain := driver.NewClient(d.env, d.wc)
	// A short untimed run of the mix settles pools, buffers and the
	// connection before the measured window.
	warm := aggregate(d.runPhase(mix, phase{
		name: "warm", exec: fixedExecutors(plain), clients: clients,
		until: time.Now().Add(time.Second), seed: opts.seed + 7_000_001, acked: acked,
	}))
	if warm.failed > 0 {
		res.fail("%d of %d warm-up operations failed, first: %v", warm.failed, warm.attempted, warm.firstErr)
		return res, nil
	}

	measure := func(name string, exec executors, traced bool, seed int64) ([]*clientStats, windowCost) {
		defer pauseGC()()
		var done atomic.Int64
		w := openWindow()
		smp := startCPUSampler(&done, 250*time.Millisecond)
		stats := d.runPhase(mix, phase{
			name: name, exec: exec, clients: clients, traced: traced,
			until: time.Now().Add(time.Duration(opts.seconds * float64(time.Second))),
			seed:  seed, acked: acked, done: &done,
		})
		subs := smp.finish()
		cost := closeWindow(w)
		cost.cpuPerOpUS = medianCPUPerOp(subs)
		return stats, cost
	}
	stats, cost := measure("run", fixedExecutors(plain), false, opts.seed)
	agg := aggregate(stats)
	heap := liveHeapMB()

	res.attempted, res.failed = agg.attempted, agg.failed
	if agg.firstErr != nil {
		res.fail("first failed operation: %v", agg.firstErr)
	}
	ops := agg.completed()
	if ops == 0 {
		res.fail("no operation completed")
		return res, nil
	}
	cpuPerOp := cost.cpuPerOpUS
	readP50 := percentile(agg.reads, 0.5)
	res.say("# %s seed=%d window=%.2fs ops=%d reads=%d writes=%d", opts.workload, opts.seed, cost.wall.Seconds(), ops, len(agg.reads), len(agg.writes))
	res.say("# diagnostics: ops_per_s=%.0f read_p99_us=%.1f (%d samples beyond) write_p99_us=%.1f host.steal_pct=%.2f window_cpu_us_per_op=%.2f gc_cycles=%d",
		float64(ops)/cost.wall.Seconds(), us(percentile(agg.reads, 0.99)), beyond(agg.reads, 0.99),
		us(percentile(agg.writes, 0.99)), cost.steal, us(cost.cpu)/float64(ops), cost.gcCycles)

	var lt layerTimes
	if !opts.trace {
		res.say("# real-clock set-ups: %v s", setupTimes)
		res.set("setup_s", median(setupTimes), "s")
		res.set("cpu_us_per_op", cpuPerOp, "us")
		res.set("live_heap_mb", heap, "MB")
		res.set("read_p50_us", us(readP50), "us")
		res.set("write_p50_us", us(percentile(agg.writes, 0.5)), "us")
	} else {
		// The traced window runs the same mix through the tracing
		// executor and the connection shim, right after the untraced
		// one, so the two give the tracing overhead.
		shim := &tracedConn{wc: d.wc}
		traced := driver.NewClient(d.env, shim)
		before := d.rs.Metrics().Snapshot()
		driverReg := traced.Metrics()
		drvBefore := driverReg.Snapshot()
		statsBefore := nodeStats(d.rs)
		probe := startCatchUpProbe(d.env, d.rs, 10*time.Millisecond)
		tstats, tcost := measure("traced", tracingExecutors(traced), true, opts.seed+1)
		lagMS := probe.finish()
		tagg := aggregate(tstats)
		after := d.rs.Metrics().Snapshot()
		drvAfter := driverReg.Snapshot()
		statsAfter := nodeStats(d.rs)
		res.attempted += tagg.attempted
		res.failed += tagg.failed
		if tagg.firstErr != nil {
			res.fail("first failed traced operation: %v", tagg.firstErr)
		}
		tops := tagg.completed()
		if tops == 0 {
			res.fail("no traced operation completed")
			return res, nil
		}
		for _, st := range tstats {
			lt.add(st.log)
		}
		wireLayerMetrics(res, &lt, before, after, drvBefore, drvAfter, tops, int64(len(tagg.reads)))
		clusterRunMetrics(res, d.rs, statsBefore, statsAfter, true)
		res.set("cluster.catchup_ms", lagMS, "ms")
		setRuntimeMetrics(res, tcost, tops)
		tcpu := tcost.cpuPerOpUS
		res.set("trace.overhead_pct", 100*(tcpu-cpuPerOp)/cpuPerOp, "%")
		res.set("trace.read_p50_overhead_pct", 100*(us(percentile(tagg.reads, 0.5))-us(readP50))/us(readP50), "%")
		res.say("# traced window: ops=%d cpu_us_per_op=%.2f read_p50_us=%.2f host.steal_pct=%.2f",
			tops, tcpu, us(percentile(tagg.reads, 0.5)), tcost.steal)
	}

	// Read back every acknowledged update (writes of the warm-up and of
	// every window included), then release the deployment before the
	// rungs build their copy.
	n, failures := d.readBack(acked)
	if n == 0 {
		failures = append(failures, "no update was acknowledged")
	}
	res.failures = append(res.failures, failures...)
	res.say("# read back %d updated records from every member", n)
	checkApplyErrors(res, d.rs)
	d.Close()
	d = nil
	if opts.trace {
		if err := runRungs(res, opts, spec, mix.uniform); err != nil {
			return nil, err
		}
		printTables(res, &lt)
	}
	return res, nil
}

type aggStats struct {
	reads, writes     []time.Duration
	attempted, failed int64
	firstErr          error
}

func (a aggStats) completed() int64 { return int64(len(a.reads) + len(a.writes)) }

func aggregate(stats []*clientStats) aggStats {
	var a aggStats
	for _, st := range stats {
		a.reads = append(a.reads, st.reads...)
		a.writes = append(a.writes, st.writes...)
		a.attempted += st.attempted
		a.failed += st.failed
		if a.firstErr == nil {
			a.firstErr = st.firstErr
		}
	}
	return a
}

// counterDelta is the growth of a counter between two snapshots.
func counterDelta(a, b obs.Snapshot, name string) float64 {
	return float64(b.CounterValue(name)) - float64(a.CounterValue(name))
}

// histMeanDelta is the mean of the observations a histogram received
// between two snapshots.
func histMeanDelta(a, b obs.Snapshot, name string) time.Duration {
	ia, _ := a.Get(name)
	ib, ok := b.Get(name)
	if !ok || ib.Hist == nil {
		return 0
	}
	var ca uint64
	var sa time.Duration
	if ia.Hist != nil {
		ca, sa = ia.Hist.Count, ia.Hist.Sum
	}
	n := ib.Hist.Count - ca
	if n == 0 {
		return 0
	}
	return (ib.Hist.Sum - sa) / time.Duration(n)
}
