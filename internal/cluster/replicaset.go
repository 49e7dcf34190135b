package cluster

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"decongestant/internal/obs"
	"decongestant/internal/obs/trace"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// ReplicaSet is the deployed cluster: one primary plus secondaries,
// connected by the zone network model, with background replication,
// heartbeat, checkpoint and noop-writer processes.
type ReplicaSet struct {
	env     sim.Env
	cfg     Config
	net     *Network
	nodes   []*Node
	metrics *obs.Registry
	tracer  *trace.Recorder
	audit   *freshnessAuditor
	leases  *leaseManager

	// primaryID is atomic rather than mutexed because the read hot
	// path now consults it on every operation (the freshness auditor
	// must know whether the serving node is a secondary).
	primaryID atomic.Int32
}

// New builds and starts a replica set. Zero-valued Config fields take
// defaults. Node 0 starts as primary.
func New(env sim.Env, cfg Config) *ReplicaSet {
	cfg = cfg.withDefaults()
	rs := &ReplicaSet{env: env, cfg: cfg, net: newNetwork(env, cfg), metrics: obs.NewRegistry()}
	// Ring 0 holds client/server-side spans (Node -1), rings 1..N the
	// per-node exec spans.
	rs.tracer = trace.NewRecorder(env.NewRand("trace"), trace.Config{Rings: cfg.Nodes + 1})
	rs.tracer.Register(rs.metrics)
	rs.audit = newFreshnessAuditor(rs.metrics)
	rs.leases = newLeaseManager(rs)
	for i := 0; i < cfg.Nodes; i++ {
		zone := cfg.Zones[i%len(cfg.Zones)]
		rs.nodes = append(rs.nodes, newNode(rs, i, zone))
	}
	rs.registerStatusCollector()
	rs.startBackground()
	return rs
}

// Metrics returns the replica set's observability registry. The
// driver and Read Balancer running in the same process register their
// instruments here too (via driver.NewClient's MetricsProvider
// detection), so one snapshot covers the whole stack.
func (rs *ReplicaSet) Metrics() *obs.Registry { return rs.metrics }

// Config returns the effective configuration.
func (rs *ReplicaSet) Config() Config { return rs.cfg }

// Env returns the execution environment.
func (rs *ReplicaSet) Env() sim.Env { return rs.env }

// Network returns the zone RTT model.
func (rs *ReplicaSet) Network() *Network { return rs.net }

// Tracer returns the replica set's span recorder. The in-process
// driver, router, and wire server all record into it, so one trace id
// retrieves the whole causal tree.
func (rs *ReplicaSet) Tracer() *trace.Recorder { return rs.tracer }

// FreshnessExemplars returns the auditor's recent per-read staleness
// exemplars (newest last).
func (rs *ReplicaSet) FreshnessExemplars() []FreshnessExemplar { return rs.audit.exemplarList() }

// PrimaryID returns the current primary's node id.
func (rs *ReplicaSet) PrimaryID() int {
	return int(rs.primaryID.Load())
}

// Primary returns the current primary node.
func (rs *ReplicaSet) Primary() *Node { return rs.nodes[rs.PrimaryID()] }

// Node returns the node with the given id.
func (rs *ReplicaSet) Node(id int) *Node { return rs.nodes[id] }

// NodeIDs returns all node ids.
func (rs *ReplicaSet) NodeIDs() []int {
	ids := make([]int, len(rs.nodes))
	for i := range rs.nodes {
		ids[i] = i
	}
	return ids
}

// SecondaryIDs returns the ids of all current secondaries.
func (rs *ReplicaSet) SecondaryIDs() []int {
	p := rs.PrimaryID()
	var ids []int
	for i := range rs.nodes {
		if i != p {
			ids = append(ids, i)
		}
	}
	return ids
}

// Zone returns a node's availability zone.
func (rs *ReplicaSet) Zone(id int) string { return rs.nodes[id].Zone }

// ClientZone returns the zone client systems run in.
func (rs *ReplicaSet) ClientZone() string { return rs.cfg.ClientZone }

// Bootstrap loads data that was present before the run, outside the
// oplog. fn runs once, against the primary's store; every other member
// then starts from its own shallow clone of that store
// (storage.Store.CloneShallow), as a new MongoDB member starts from an
// initial sync of one sync source. The members share the immutable
// stored documents and each gets its own slots and index trees, so a
// later write to one is invisible to the others. Use it for loading
// datasets and creating indexes.
func (rs *ReplicaSet) Bootstrap(fn func(s *storage.Store) error) error {
	src := rs.Primary()
	snaps := make(map[*Node]*storage.Store, len(rs.nodes)-1)
	src.applyMu.Lock()
	src.mu.Lock()
	err := fn(src.store)
	for _, n := range rs.nodes {
		if n != src && err == nil {
			snaps[n] = src.store.CloneShallow()
		}
	}
	src.mu.Unlock()
	src.applyMu.Unlock()
	if err != nil {
		return err
	}
	for n, snap := range snaps {
		n.applyMu.Lock()
		n.mu.Lock()
		n.store = snap
		n.mu.Unlock()
		n.applyMu.Unlock()
	}
	return nil
}

// ---- client-facing operations ----

// ErrNotPrimary is returned when a write reaches a non-primary node.
var ErrNotPrimary = fmt.Errorf("cluster: node is not primary")

// ErrNodeDown is returned when an operation reaches an unavailable node.
var ErrNodeDown = fmt.Errorf("cluster: node is down")

// SetDown marks a node (un)available. Operations against a down node
// fail; the driver's server selection avoids it.
func (rs *ReplicaSet) SetDown(id int, down bool) {
	rs.nodes[id].down.Store(down)
}

// ExecRead runs a read-only body at the chosen node, modeling network
// traversal, CPU queueing and service time proportional to the read
// units the body consumes. It returns the body's result.
func (rs *ReplicaSet) ExecRead(p sim.Proc, nodeID int, fn func(v ReadView) (any, error)) (any, error) {
	res, _, err := rs.ExecReadMeta(p, nodeID, oplog.Zero, ReadMeta{}, fn)
	return res, err
}

func (n *Node) execRead(p sim.Proc, fn func(v ReadView) (any, error)) (any, error) {
	if n.Down() {
		return nil, ErrNodeDown
	}
	qstart := p.Now()
	n.cpu.Acquire(p)
	defer n.cpu.Release()
	n.obsQueueWait.Observe(p.Now() - qstart)
	n.obsReads.Inc(1)
	v := readViews.Get().(*localReadView)
	v.node = n
	// Read lock only: concurrent reads on this node run in parallel
	// (bounded by the CPU slots acquired above); they are excluded only
	// by a committing write or an oplog batch apply, which guarantees a
	// read never observes a half-applied transaction.
	n.mu.RLock()
	res, err := fn(v)
	n.mu.RUnlock()
	n.stats.reads.Add(1)
	units := v.readUnits
	*v = localReadView{}
	readViews.Put(v)
	if units < 1 {
		units = 1
	}
	p.Sleep(n.jitterCost(time.Duration(units) * n.rs.cfg.ReadCost))
	return res, err
}

// ExecWrite runs a read-write transaction body at the primary,
// modeling flow-control throttling, CPU queueing, and service time for
// both the read and write work. Mutations are applied and oplogged.
func (rs *ReplicaSet) ExecWrite(p sim.Proc, fn func(tx WriteTxn) (any, error)) (any, error) {
	n := rs.Primary()
	rs.net.Travel(p, rs.cfg.ClientZone, n.Zone)
	res, _, err := n.execWrite(p, fn)
	rs.net.Travel(p, n.Zone, rs.cfg.ClientZone)
	return res, err
}

func (n *Node) execWrite(p sim.Proc, fn func(tx WriteTxn) (any, error)) (any, oplog.OpTime, error) {
	if n.Down() {
		return nil, oplog.Zero, ErrNodeDown
	}
	if n.rs.PrimaryID() != n.ID {
		return nil, oplog.Zero, ErrNotPrimary
	}
	// Flow control: stall writers when known replication lag is high.
	if n.throttled() {
		p.Sleep(n.rs.cfg.FlowControlDelay)
	}
	qstart := p.Now()
	n.cpu.Acquire(p)
	defer n.cpu.Release()
	n.obsQueueWait.Observe(p.Now() - qstart)
	n.obsWrites.Inc(1)
	tx := &localWriteTxn{localReadView: localReadView{node: n}}
	// The transaction body only reads committed state (mutations are
	// buffered until commit), so it runs under the read lock and in
	// parallel with other reads and write bodies; the commit below
	// takes the write lock.
	n.mu.RLock()
	res, err := fn(tx)
	n.mu.RUnlock()
	n.stats.writes.Add(1)
	cost := time.Duration(tx.readUnits)*n.rs.cfg.ReadCost +
		time.Duration(tx.writeOps())*n.rs.cfg.WriteCost
	if cost < n.rs.cfg.WriteCost {
		cost = n.rs.cfg.WriteCost
	}
	if n.Checkpointing() {
		cost = time.Duration(float64(cost) * checkpointSlowdown)
	}
	p.Sleep(n.jitterCost(cost))
	// Commit at the end of the service time: this is when the write
	// becomes durable and visible to replication. A failed commit
	// changes nothing: see Node.commitStaged.
	if err != nil {
		return res, oplog.Zero, err
	}
	commit, err := n.commitStaged(p, tx.muts)
	return res, commit, err
}

// WriteThrottled reports whether the primary's flow control would
// stall a write issued now: its known worst secondary lag has reached
// FlowControlLagSecs.
func (rs *ReplicaSet) WriteThrottled() bool { return rs.Primary().throttled() }

func (n *Node) throttled() bool {
	lim := n.rs.cfg.FlowControlLagSecs
	return lim > 0 && n.knownMaxLagSecs() >= lim
}

// knownMaxLagSecs is the primary's view of its worst secondary's lag.
func (n *Node) knownMaxLagSecs() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var worst int64
	for id, ts := range n.known {
		if id == n.ID {
			continue
		}
		if lag := n.lastApplied.LagSeconds(ts); lag > worst {
			worst = lag
		}
	}
	return worst
}

// Ping measures one round trip to the node without touching its CPU —
// the Read Balancer's RTT probe. Pinging a down node still spends the
// round trip (the probe times out in flight) but returns -1 so the
// caller can skip the sample instead of filing a bogus RTT.
func (rs *ReplicaSet) Ping(p sim.Proc, nodeID int) time.Duration {
	start := p.Now()
	rs.net.RoundTrip(p, rs.cfg.ClientZone, rs.nodes[nodeID].Zone)
	if rs.nodes[nodeID].Down() {
		return -1
	}
	return p.Now() - start
}

// MemberStatus is one row of a serverStatus response.
type MemberStatus struct {
	ID      int
	Primary bool
	// Applied is the member's lastAppliedOpTime as known by the
	// queried node — possibly stale knowledge, which is exactly the
	// conservative error model of §2.3.
	Applied oplog.OpTime
	// Leased reports whether the member held a valid lease (leader
	// lease for the primary, read lease otherwise) at snapshot time —
	// the signal the driver's Linearizable server selection routes on.
	Leased bool
}

// Status is a serverStatus response from one node.
type Status struct {
	From    int
	Primary int
	// LeaseEpoch is the current lease epoch (0 = leases disabled).
	LeaseEpoch uint64
	Members    []MemberStatus
}

// OK reports whether the status actually came back from a live node.
// A down or unreachable node yields a member-less Status (the wire
// client produces the same shape on a network error), which callers
// must skip rather than interpret as zero staleness.
func (st Status) OK() bool { return len(st.Members) > 0 }

// StalenessSecs returns the apparent staleness of member id: the
// primary's applied optime minus the member's, in whole seconds.
func (st Status) StalenessSecs(id int) int64 {
	var primary, member oplog.OpTime
	for _, m := range st.Members {
		if m.ID == st.Primary {
			primary = m.Applied
		}
		if m.ID == id {
			member = m.Applied
		}
	}
	return primary.LagSeconds(member)
}

// MaxSecondaryStalenessSecs returns the worst apparent staleness over
// all secondaries.
func (st Status) MaxSecondaryStalenessSecs() int64 {
	var worst int64
	for _, m := range st.Members {
		if m.ID == st.Primary {
			continue
		}
		if lag := st.StalenessSecs(m.ID); lag > worst {
			worst = lag
		}
	}
	return worst
}

// ServerStatus issues the serverStatus command at the chosen node and
// returns its view of every member's replication progress. A down
// node spends the network round trip but returns a member-less Status
// (check Status.OK), never stale garbage.
func (rs *ReplicaSet) ServerStatus(p sim.Proc, nodeID int) Status {
	n := rs.nodes[nodeID]
	rs.net.Travel(p, rs.cfg.ClientZone, n.Zone)
	if n.Down() {
		rs.net.Travel(p, n.Zone, rs.cfg.ClientZone)
		return Status{From: n.ID}
	}
	n.cpu.Acquire(p)
	p.Sleep(n.jitterCost(rs.cfg.StatusCost))
	st := n.statusSnapshot()
	n.cpu.Release()
	rs.net.Travel(p, n.Zone, rs.cfg.ClientZone)
	return st
}

func (n *Node) statusSnapshot() Status {
	n.stats.statuses.Add(1)
	// Read the primary id through its own lock before taking n.mu so the
	// two locks never nest (replica set → node is the only legal order).
	primary := n.rs.PrimaryID()
	// Lease state reads only leaseManager atomics — safe under n.mu.
	leases := n.rs.leases
	n.mu.RLock()
	defer n.mu.RUnlock()
	st := Status{From: n.ID, Primary: primary, LeaseEpoch: leases.epochValue()}
	for id := range n.known {
		applied := n.known[id]
		if id == n.ID {
			applied = n.lastApplied
		}
		st.Members = append(st.Members, MemberStatus{
			ID:      id,
			Primary: id == primary,
			Applied: applied,
			Leased:  leases.holds(id, primary),
		})
	}
	return st
}

// Failover promotes the most up-to-date secondary. The new primary
// first catches up on any oplog entries it has not yet applied (as a
// MongoDB election's catch-up phase does), so no acknowledged write is
// lost. It returns the new primary's id.
func (rs *ReplicaSet) Failover(p sim.Proc) int {
	oldID := rs.PrimaryID()
	old := rs.nodes[oldID]
	// Pick the secondary with the highest lastApplied.
	best := -1
	var bestTS oplog.OpTime
	for id, n := range rs.nodes {
		if id == oldID {
			continue
		}
		if ts := n.LastApplied(); best == -1 || bestTS.Before(ts) {
			best, bestTS = id, ts
		}
	}
	if best == -1 {
		return oldID
	}
	winner := rs.nodes[best]
	// Lease drain, part 1: bump the epoch and stop all grants NOW, so
	// the outstanding leases' expiries (computed below) are final and
	// the drain overlaps the catch-up work. No new-epoch lease can
	// exist until endTransfer reopens grants after the primary flip.
	drainUntil := rs.leases.beginTransfer(best)
	// Catch-up: apply the entries the winner is missing, and log the
	// old primary's entries themselves (they are immutable). The scan
	// only reads the old primary's oplog, so the read lock is
	// enough; reads there keep flowing during the election. The batch
	// is checked once outside any lock, and the apply runs under the
	// winner's applyMu so it serializes with any in-flight chunk apply
	// from the winner's own puller.
	old.mu.RLock()
	missing := old.log.ScanAfter(nil, bestTS, 0)
	old.mu.RUnlock()
	missing, dropped, cerr := oplog.CheckBatch(missing)
	if dropped > 0 {
		winner.noteApplyErrors(dropped, cerr)
	}
	winner.applyMu.Lock()
	winner.mu.Lock()
	for _, e := range missing {
		if !winner.lastApplied.Before(e.TS) {
			// The winner's own puller applied this entry between the
			// bestTS snapshot and here; re-applying is redundant, not
			// an error.
			continue
		}
		if err := e.Apply(winner.store); err != nil {
			winner.noteApplyErrors(1, err)
			continue
		}
		if err := winner.log.Append(e); err != nil {
			winner.noteApplyErrors(1, err)
			continue
		}
		winner.lastApplied = e.TS
		winner.known[winner.ID] = e.TS
	}
	winner.wakeAckWaitersLocked()
	winner.mu.Unlock()
	winner.applyMu.Unlock()
	winner.applyGate.Broadcast()
	// Lease drain, part 2: before the new primary takes over, wait out
	// every lease granted under the old regime — the deposed primary's
	// leader lease and all read leases, translated from their holders'
	// (possibly skewed) clocks — plus one guard band. Only then is it
	// impossible for any node to serve a linearizable read against
	// pre-transfer state once the new primary accepts writes.
	if rs.leases.enabled {
		if wait := drainUntil + rs.cfg.LeaseGuardBand - p.Now(); wait > 0 {
			p.Sleep(wait)
		}
	}
	rs.primaryID.Store(int32(best))
	rs.leases.endTransfer(oldID)
	// Release the awaitData getMores parked at the deposed primary:
	// their pullers re-target the new one instead of waiting out
	// ReplIdlePoll against a log that no longer grows.
	old.tailGate.Broadcast()
	return best
}

// ---- causal consistency (afterClusterTime) ----

// ExecReadAfter is ExecRead with MongoDB's afterClusterTime semantics:
// the read blocks at the chosen node until that node has applied at
// least the `after` OpTime, then executes. It returns the node's
// lastApplied at execution time alongside the result, so sessions can
// thread their causal token forward.
func (rs *ReplicaSet) ExecReadAfter(p sim.Proc, nodeID int, after oplog.OpTime, fn func(v ReadView) (any, error)) (any, oplog.OpTime, error) {
	return rs.ExecReadMeta(p, nodeID, after, ReadMeta{}, fn)
}

// ReadMeta carries per-operation observability into the read path: the
// trace context (zero when unsampled) and the freshness bound, in
// seconds, the client's session promised for this read (0 = none).
type ReadMeta struct {
	Ctx       trace.Context
	BoundSecs int64
}

// ExecReadMeta is ExecReadAfter plus the observability layer. When the
// context is live, the node-exec hop is recorded as a span (annotated
// with the served OpTime and, on secondaries, the observed staleness).
// Independently of sampling, every read served by a secondary is
// stamped by the freshness auditor with
//
//	observed_staleness = primary lastApplied − serving node lastApplied
//
// at serve time; the primary's lastApplied is the commit-point proxy —
// it can only overestimate the majority commit point, so the audit
// errs conservative (DESIGN.md §12). Reads that exceed their promised
// bound bump freshness.bound_violations and pin the offending trace.
func (rs *ReplicaSet) ExecReadMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta ReadMeta, fn func(v ReadView) (any, error)) (any, oplog.OpTime, error) {
	res, ts, _, err := rs.ExecReadFreshMeta(p, nodeID, after, meta, fn)
	return res, ts, err
}

// ExecReadFreshMeta is ExecReadMeta that additionally returns the
// staleness observed at serve time, in whole seconds (0 for
// primary-served reads). The freshness-priced cache stamps entries
// with this value: an entry filled with observed staleness s at wall
// time t provably satisfies any bound Δ until t + (Δ − s), because
// staleness grows at most at wall-clock rate.
func (rs *ReplicaSet) ExecReadFreshMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta ReadMeta, fn func(v ReadView) (any, error)) (any, oplog.OpTime, int64, error) {
	n := rs.nodes[nodeID]
	rs.net.Travel(p, rs.cfg.ClientZone, n.Zone)
	live := meta.Ctx.Live()
	var spanID uint64
	var start time.Duration
	if live {
		spanID = rs.tracer.NewSpanID()
		start = p.Now()
	}
	res, ts, err := n.execReadAfter(p, after, fn)
	var observed int64
	var attrs []trace.Attr
	if err == nil && nodeID != rs.PrimaryID() {
		observed = rs.Primary().LastApplied().LagSeconds(ts)
		if rs.audit.record(meta.BoundSecs, observed, meta.Ctx.TraceID) {
			rs.tracer.Pin(meta.Ctx.TraceID)
		}
		if live {
			attrs = []trace.Attr{
				{K: "optime", V: ts.String()},
				{K: "staleness_secs", V: strconv.FormatInt(observed, 10)},
			}
		}
	} else if live && err == nil {
		attrs = []trace.Attr{{K: "optime", V: ts.String()}}
	}
	if live {
		rs.tracer.Record(trace.Span{
			Trace:  meta.Ctx.TraceID,
			ID:     spanID,
			Parent: meta.Ctx.SpanID,
			Name:   "node.exec_read",
			Node:   nodeID,
			Start:  start,
			Dur:    p.Now() - start,
			Attrs:  attrs,
		})
	}
	rs.net.Travel(p, n.Zone, rs.cfg.ClientZone)
	return res, ts, observed, err
}

// AuditServed files a read that was served without touching any node —
// a cache hit — into the same freshness auditor as node-served reads,
// with the hit's effective staleness (fill staleness + entry age). It
// reports whether the read violated its bound, pinning the trace when
// it did. The non-violating path is allocation-free once the bound's
// histogram exists, which keeps cache hits at zero allocs.
func (rs *ReplicaSet) AuditServed(boundSecs, observedSecs int64, traceID uint64) bool {
	if rs.audit.record(boundSecs, observedSecs, traceID) {
		rs.tracer.Pin(traceID)
		return true
	}
	return false
}

func (n *Node) execReadAfter(p sim.Proc, after oplog.OpTime, fn func(v ReadView) (any, error)) (any, oplog.OpTime, error) {
	if n.Down() {
		return nil, oplog.Zero, ErrNodeDown
	}
	// Wait for causal prerequisite before consuming a CPU slot, as
	// MongoDB queues the operation until the node catches up.
	for n.LastApplied().Before(after) {
		if n.Down() {
			return nil, oplog.Zero, ErrNodeDown
		}
		n.applyGate.Wait(p)
	}
	res, err := n.execRead(p, fn)
	return res, n.LastApplied(), err
}

// ExecWriteTracked is ExecWrite that also returns the OpTime of the
// transaction's last committed operation (Zero for empty
// transactions) — the session's new causal token: the transaction's
// own commit OpTime.
func (rs *ReplicaSet) ExecWriteTracked(p sim.Proc, fn func(tx WriteTxn) (any, error)) (any, oplog.OpTime, error) {
	n := rs.Primary()
	rs.net.Travel(p, rs.cfg.ClientZone, n.Zone)
	res, ts, err := n.execWrite(p, fn)
	rs.net.Travel(p, n.Zone, rs.cfg.ClientZone)
	return res, ts, err
}
