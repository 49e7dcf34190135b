package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/workload"
	"decongestant/internal/workload/ycsb"
)

// wireLayerMetrics reports the driver and wire layers of a traced
// window: span means from the benchmark's own spans, server-side means
// and counts from the replica set's registry (a) and the driver's
// registry (b), each as the difference between the window's edges.
func wireLayerMetrics(r *result, lt *layerTimes, before, after, drvBefore, drvAfter obs.Snapshot, ops, reads int64) {
	r.set("driver.self_us", lt.selfUS(kDriverRead), "us")
	var selections float64
	for pref := driver.Primary; pref <= driver.Linearizable; pref++ {
		selections += counterDelta(drvBefore, drvAfter, obs.Name("driver.selections", "pref", pref.String()))
	}
	r.set("driver.selections_per_op", selections/float64(max(reads, 1)), "count")
	r.set("driver.fallback_retries", counterDelta(drvBefore, drvAfter, "driver.fallback_retries"), "count")

	clientRead := lt.meanUS(kWireRead)
	serverRead := us(histMeanDelta(before, after, obs.Name("wire.request_latency", "op", "find_by_id")))
	r.set("wire.client_read_us", clientRead, "us")
	r.set("wire.server_read_us", serverRead, "us")
	r.set("wire.transit_read_us", clientRead-serverRead, "us")
	r.set("wire.client_write_us", lt.meanUS(kWireWrite), "us")
	r.set("wire.server_write_us", us(histMeanDelta(before, after, obs.Name("wire.request_latency", "op", "write_batch"))), "us")
	bytes := counterDelta(before, after, "wire.bytes_in") + counterDelta(before, after, "wire.bytes_out")
	frames := counterDelta(before, after, "wire.frames_in") + counterDelta(before, after, "wire.frames_out")
	r.set("wire.bytes_per_op", bytes/float64(ops), "B")
	r.set("wire.frames_per_op", frames/float64(ops), "count")
	r.set("wire.requests_shed", counterDelta(before, after, obs.Name("wire.requests_shed", "reason", "overload")), "count")
}

func nodeStats(rs *cluster.ReplicaSet) []cluster.NodeStats {
	var out []cluster.NodeStats
	for _, id := range rs.NodeIDs() {
		out = append(out, rs.Node(id).Stats())
	}
	return out
}

// clusterRunMetrics reports the error counters of Node.Stats over the
// whole run and, with window set, the replication and group-commit
// counters over the window.
func clusterRunMetrics(r *result, rs *cluster.ReplicaSet, before, after []cluster.NodeStats, window bool) {
	var getMores, fetched, applyErrs, resyncs int64
	for i := range after {
		getMores += after[i].GetMores - before[i].GetMores
		fetched += after[i].FetchedEntries - before[i].FetchedEntries
		applyErrs += after[i].ApplyErrors
		resyncs += after[i].Resyncs
	}
	if window {
		r.set("cluster.entries_per_getmore", float64(fetched)/float64(max(getMores, 1)), "count")
		p := rs.PrimaryID()
		commits := after[p].GroupCommits - before[p].GroupCommits
		txns := after[p].GroupedTxns - before[p].GroupedTxns
		r.set("cluster.txns_per_group_commit", float64(txns)/float64(max(commits, 1)), "count")
	}
	r.set("cluster.apply_errors", float64(applyErrs), "count")
	r.set("cluster.resyncs", float64(resyncs), "count")
}

// checkApplyErrors fails the run if any member reported a replication
// apply error.
func checkApplyErrors(r *result, rs *cluster.ReplicaSet) {
	for _, st := range nodeStats(rs) {
		if st.ApplyErrors != 0 {
			r.fail("cluster.apply_errors = %d", st.ApplyErrors)
			return
		}
	}
}

// lagSampler estimates replication lag in virtual time from outside:
// it records when the primary's lastApplied advanced, and at each
// sample a secondary that has not applied the primary's newest write is
// as stale as the time since the primary first moved past what the
// secondary has.
type lagSampler struct {
	rs      *cluster.ReplicaSet
	from    time.Duration // samples before this time only record history
	at      []time.Duration
	applied []oplog.OpTime
	sum     time.Duration
	n       int
}

func (s *lagSampler) sample(now time.Duration) {
	cur := s.rs.Primary().LastApplied()
	if k := len(s.applied); k == 0 || s.applied[k-1].Before(cur) {
		s.at = append(s.at, now)
		s.applied = append(s.applied, cur)
	}
	if now < s.from {
		return
	}
	for _, id := range s.rs.SecondaryIDs() {
		s.n++
		a := s.rs.Node(id).LastApplied()
		if !a.Before(cur) {
			continue
		}
		i := sort.Search(len(s.applied), func(i int) bool { return a.Before(s.applied[i]) })
		if i < len(s.applied) {
			s.sum += now - s.at[i]
		}
	}
}

// meanMS is the mean sampled lag over secondaries and samples.
func (s *lagSampler) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return ms(s.sum) / float64(s.n)
}

// catchUpProbe measures replication lag on the real clock, where a
// sampler sharing the one P would only ever run while replication is
// idle: every interval it takes the primary's lastApplied and waits,
// through a direct ExecReadAfter on each secondary, until that
// secondary has applied it. The lag is the wait.
type catchUpProbe struct {
	sum  time.Duration
	n    int
	stop chan struct{}
	done chan struct{}
}

func startCatchUpProbe(env *sim.RealtimeEnv, rs *cluster.ReplicaSet, every time.Duration) *catchUpProbe {
	c := &catchUpProbe{stop: make(chan struct{}), done: make(chan struct{})}
	p := env.Adhoc("perfbench/catch-up-probe")
	noop := func(cluster.ReadView) (any, error) { return nil, nil }
	go func() {
		defer close(c.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
			cur := rs.Primary().LastApplied()
			start := time.Now()
			for _, id := range rs.SecondaryIDs() {
				if _, _, err := rs.ExecReadAfter(p, id, cur, noop); err == nil {
					c.sum += time.Since(start)
					c.n++
				}
			}
		}
	}()
	return c
}

// finish stops the probe and returns the mean lag in milliseconds.
func (c *catchUpProbe) finish() float64 {
	close(c.stop)
	<-c.done
	if c.n == 0 {
		return 0
	}
	return ms(c.sum) / float64(c.n)
}

// runRungs times direct calls into the cluster and storage layers, with
// no TCP, on a one-member copy of the replica set built from the same
// generator and seed. Each figure is the median over five batches of
// the mean time per call.
func runRungs(r *result, opts options, spec ycsb.Spec, uniform bool) error {
	env := sim.NewRealtimeEnv(opts.seed)
	defer env.Shutdown()
	cfg := realClusterConfig()
	cfg.Nodes = 1
	rs := cluster.New(env, cfg)
	if err := ycsb.Load(rs, spec, opts.seed); err != nil {
		return fmt.Errorf("rung load: %w", err)
	}
	var store *storage.Store
	if err := rs.Bootstrap(func(s *storage.Store) error { store = s; return nil }); err != nil {
		return err
	}
	coll := store.C(ycsb.Table)

	rng := rand.New(rand.NewSource(opts.seed + 9_000_011))
	var gen ycsb.Generator = ycsb.NewScrambledZipfian(spec.RecordCount)
	if uniform {
		gen = ycsb.NewUniform(spec.RecordCount)
	}
	calls := opts.size.rungCalls
	keys := make([]string, calls)
	vals := make([]storage.Document, calls)
	for i := range keys {
		keys[i] = ycsb.KeyName(gen.Next(rng))
		vals[i] = storage.D{"field0": workload.RandString(rng, spec.FieldLength)}
	}
	for _, k := range keys {
		if e, ok := coll.FindByIDEncoded(k); ok {
			e.Bytes()
		}
	}
	check := newRecordChecker(spec)
	var bad error
	perCall := func(fn func(i int)) time.Duration {
		var batches []float64
		for b := 0; b < 5; b++ {
			start := time.Now()
			for i := range keys {
				fn(i)
			}
			batches = append(batches, float64(time.Since(start))/float64(len(keys)))
		}
		return time.Duration(median(batches))
	}
	r.set("storage.find_by_id_ns", float64(perCall(func(i int) {
		if d, ok := coll.FindByID(keys[i]); !ok || d == nil {
			bad = errMissing
		}
	})), "ns")
	r.set("storage.find_by_id_encoded_ns", float64(perCall(func(i int) {
		if e, ok := coll.FindByIDEncoded(keys[i]); !ok || len(e.Bytes()) == 0 {
			bad = errMissing
		}
	})), "ns")
	p := env.Adhoc("perfbench/rung")
	primary := rs.PrimaryID()
	r.set("cluster.exec_read_us", us(perCall(func(i int) {
		key := keys[i]
		if _, err := rs.ExecRead(p, primary, func(v cluster.ReadView) (any, error) {
			d, ok := v.FindByID(ycsb.Table, key)
			return nil, check.check(d, ok, key)
		}); err != nil {
			bad = err
		}
	})), "us")
	r.set("cluster.exec_write_us", us(perCall(func(i int) {
		key, val := keys[i], vals[i]
		if _, err := rs.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Set(ycsb.Table, key, val)
		}); err != nil {
			bad = err
		}
	})), "us")
	r.set("storage.apply_set_ns", float64(perCall(func(i int) {
		if _, err := coll.ApplySet(keys[i], vals[i]); err != nil {
			bad = err
		}
	})), "ns")
	if bad != nil {
		r.fail("rung call failed: %v", bad)
	}
	return nil
}

// printTables adds the "where the microseconds go" tables to the
// report. Each row is one layer's self time; the rows telescope, so
// they sum to the op's mean. Rows above the server come from spans
// recorded under load, the server row from the program's registry, and
// the node and storage rows from the uncontended direct-call rungs.
func printTables(r *result, lt *layerTimes) {
	m := func(name string) float64 { return r.metrics[name].Value }
	table := func(title string, op, drv spanKind, client, server, exec, storageUS float64, storageName string) {
		rows := []struct {
			layer string
			self  float64
		}{
			{"op (executor, result check)", lt.selfUS(op)},
			{"driver (server selection)", lt.selfUS(drv)},
			{"wire transit (client codec, loopback TCP, scheduling)", client - server},
			{"wire server (admission, dispatch, response encode)", server - exec},
			{"cluster node (CPU slot, node lock, view)", exec - storageUS},
			{"storage (" + storageName + ")", storageUS},
		}
		total := lt.meanUS(op)
		r.say("# where the microseconds go: %s (mean of %d ops, %.2f us)", title, lt.count[op], total)
		for _, row := range rows {
			share := 0.0
			if total > 0 {
				share = 100 * row.self / total
			}
			r.say("#   %-56s %9.2f us %6.1f%%", row.layer, row.self, share)
		}
	}
	table("read", kOpRead, kDriverRead, m("wire.client_read_us"), m("wire.server_read_us"),
		m("cluster.exec_read_us"), m("storage.find_by_id_ns")/1000, "FindByID")
	table("write", kOpWrite, kDriverWrite, m("wire.client_write_us"), m("wire.server_write_us"),
		m("cluster.exec_write_us"), m("storage.apply_set_ns")/1000, "ApplySet")
}
