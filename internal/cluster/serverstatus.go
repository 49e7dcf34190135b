package cluster

import (
	"runtime"
	"strconv"

	"decongestant/internal/obs"
)

// Scrape-time serverStatus families. Real operators scrape MongoDB
// through four metric families — status (connections, asserts, memory,
// queues), replstatus (per-member replication state), collstats and
// dbstats — and the elastic integration's field list is the reference
// for which readings matter. The hot paths already maintain their own
// counters; everything here is derived state that would be wasteful to
// keep current per-operation, so it is computed by a registry
// collector that runs once per snapshot (a metrics-op scrape, the
// Prometheus endpoint, the periodic replsetd log) instead.
//
// The wire server contributes the connection rows of the status family
// (status.connections.*) from its own accept loop; everything below
// comes from the replica set.

// registerStatusCollector wires the replica set's serverStatus
// families into its registry. Called once from New.
func (rs *ReplicaSet) registerStatusCollector() {
	reg := rs.metrics
	nodes := len(rs.nodes)
	type nodeGauges struct {
		state      *obs.Gauge
		optimeSecs *obs.Gauge
		lagSecs    *obs.Gauge
		leased     *obs.Gauge
		queueDepth *obs.Gauge
		cpuInUse   *obs.Gauge
	}
	ng := make([]nodeGauges, nodes)
	for i := 0; i < nodes; i++ {
		node := strconv.Itoa(i)
		ng[i] = nodeGauges{
			state:      reg.Gauge(obs.Name("replstatus.state", "node", node)),
			optimeSecs: reg.Gauge(obs.Name("replstatus.optime_secs", "node", node)),
			lagSecs:    reg.Gauge(obs.Name("replstatus.lag_secs", "node", node)),
			leased:     reg.Gauge(obs.Name("replstatus.leased", "node", node)),
			queueDepth: reg.Gauge(obs.Name("status.queue_depth", "node", node)),
			cpuInUse:   reg.Gauge(obs.Name("status.cpu_in_use", "node", node)),
		}
	}
	heap := reg.Gauge("status.mem.heap_bytes")
	sys := reg.Gauge("status.mem.sys_bytes")
	goroutines := reg.Gauge("status.goroutines")
	assertApply := reg.Gauge(obs.Name("status.asserts", "kind", "apply_errors"))
	assertResync := reg.Gauge(obs.Name("status.asserts", "kind", "resyncs"))
	dbColls := reg.Gauge("dbstats.collections")
	dbDocs := reg.Gauge("dbstats.docs")
	dbIndexes := reg.Gauge("dbstats.indexes")
	dbEncBytes := reg.Gauge("dbstats.encoded_bytes")

	reg.RegisterCollector(func() {
		primaryID := rs.PrimaryID()
		primaryTS := rs.nodes[primaryID].LastApplied()
		var applyErrs, resyncs int64
		for i, n := range rs.nodes {
			st := n.Stats()
			applyErrs += st.ApplyErrors
			resyncs += st.Resyncs
			applied := n.LastApplied()
			state := int64(1)
			switch {
			case n.Down():
				state = 0
			case i == primaryID:
				state = 2
			}
			ng[i].state.Set(state)
			ng[i].optimeSecs.Set(applied.Secs)
			ng[i].lagSecs.Set(primaryTS.LagSeconds(applied))
			var leased int64
			if rs.leases.holds(i, primaryID) {
				leased = 1
			}
			ng[i].leased.Set(leased)
			ng[i].queueDepth.Set(int64(n.QueueDepth()))
			ng[i].cpuInUse.Set(int64(n.cpu.InUse()))
		}
		assertApply.Set(applyErrs)
		assertResync.Set(resyncs)

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap.Set(int64(ms.HeapAlloc))
		sys.Set(int64(ms.Sys))
		goroutines.Set(int64(runtime.NumGoroutine()))

		// collstats/dbstats read the primary's store: the authoritative
		// copy, walked under its read locks alongside concurrent readers.
		p := rs.nodes[primaryID]
		p.mu.RLock()
		store := p.store
		p.mu.RUnlock()
		db := store.Stats()
		dbColls.Set(int64(db.Collections))
		dbDocs.Set(int64(db.Docs))
		dbIndexes.Set(int64(db.Indexes))
		dbEncBytes.Set(db.EncodedBytes)
		for _, cs := range db.PerCollection {
			reg.Gauge(obs.Name("collstats.docs", "coll", cs.Name)).Set(int64(cs.Docs))
			reg.Gauge(obs.Name("collstats.indexes", "coll", cs.Name)).Set(int64(cs.Indexes))
			reg.Gauge(obs.Name("collstats.encoded_bytes", "coll", cs.Name)).Set(cs.EncodedBytes)
		}
	})
}
