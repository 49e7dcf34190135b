package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decongestant/internal/obs"
	"decongestant/internal/obs/trace"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
)

// Lease-based linearizable reads (ROADMAP item 4, after
// "Towards Reconfigurable Linearizable Reads", arXiv 2404.05470).
//
// Two kinds of lease exist, both time-bounded on the HOLDER's local
// clock with a guard band against clock skew:
//
//   - The leader lease: the primary may serve linearizable reads
//     locally (no majority round) while a majority of members have
//     acknowledged a grant from it within the lease window. Grants ride
//     on the existing replication heartbeats, so the lease renews for
//     free while the primary can reach a majority and decays by pure
//     passage of time when it cannot — exactly the partition hazard the
//     guard band and the failover drain protect against.
//
//   - Per-secondary read leases: each heartbeat from the primary grants
//     the receiving secondary a lease carrying the current lease epoch
//     and the majority commit point observed at grant time. A secondary
//     whose lease is valid and whose lastApplied has reached that
//     commit point serves linearizable reads from its local COW
//     snapshot; otherwise it rejects with a typed retryable *LeaseError
//     and the driver falls back to the primary.
//
// Failover is the correctness crux: Failover bumps the lease epoch and
// refuses all grants first, then waits out every outstanding lease
// (read leases and the deposed primary's leader lease, each translated
// from holder-clock to simulation-clock using the injected skew) plus
// one guard band before installing the new primary — so no node can
// serve a linearizable read under the old regime once the new one
// accepts writes. The audit below turns that into a checked invariant.
//
// Lock order: leaseManager.mu is a leaf — it is taken with no other
// cluster lock held, and nothing is acquired under it. Hot-path
// validity checks (leaderValid/checkRead) are lock-free atomics so the
// read path never contends on the grant path.

// LeaseError is the typed, retryable rejection a node returns when it
// cannot serve a linearizable read locally. The driver reacts by
// retrying at the primary and attributing the extra hop to Reason.
type LeaseError struct {
	Node   int
	Reason string
}

// Lease rejection reasons (LeaseError.Reason and the driver's
// fallback attribution labels).
const (
	LeaseReasonNoLease        = "no-lease"
	LeaseReasonExpired        = "lease-expired"
	LeaseReasonCommitBehind   = "commit-point-behind"
	LeaseReasonNotPrimary     = "not-primary"
	LeaseReasonPrimaryConfirm = "primary-confirm" // primary without leader lease: majority round taken
)

func (e *LeaseError) Error() string {
	return fmt.Sprintf("cluster: linearizable read rejected (node %d): %s", e.Node, e.Reason)
}

// LeaseReject extracts a lease-rejection reason from err. It matches
// both the typed *LeaseError and its string form — wire responses
// flatten errors to text, and the driver must attribute remote
// rejections identically to in-process ones.
func LeaseReject(err error) (string, bool) {
	if err == nil {
		return "", false
	}
	var le *LeaseError
	if errors.As(err, &le) {
		return le.Reason, true
	}
	msg := err.Error()
	const marker = "linearizable read rejected"
	if i := strings.Index(msg, marker); i >= 0 {
		if j := strings.LastIndex(msg, ": "); j >= 0 && j+2 < len(msg) {
			return msg[j+2:], true
		}
	}
	return "", false
}

// readLease is one secondary's lease snapshot, swapped atomically so
// validity checks never lock.
type readLease struct {
	epoch  uint64
	commit oplog.OpTime  // majority commit point at grant time
	expiry time.Duration // on the HOLDER's local clock
}

// LeaseExemplar is one audited lease-served linearizable read: the
// epoch the serving lease was granted under, the newest epoch any
// grant had been issued under when the read completed, and the trace
// id when sampled. Granted > Epoch means the read outlived its lease
// regime — a stale linearizable read.
type LeaseExemplar struct {
	Node      int
	Epoch     uint64
	Granted   uint64
	Trace     uint64
	Violation bool
}

const leaseExemplarCap = 128

// leaseManager owns all lease state for a replica set. Grants and
// epoch transfers serialize under mu; validity checks on the read hot
// path are pure atomics.
type leaseManager struct {
	rs       *ReplicaSet
	enabled  bool
	duration time.Duration
	guard    time.Duration

	mu       sync.Mutex
	draining bool // transfers refuse grants while the old regime drains

	epoch        atomic.Uint64 // current lease epoch (1 when enabled, 0 when not)
	grantedEpoch atomic.Uint64 // newest epoch any grant has been issued under

	// skew is each node's injected clock offset: the node's local clock
	// reads env.Now()+skew. Tests use it to prove the guard band holds.
	skew []atomic.Int64

	// read[i] is node i's current read lease (nil = none).
	read []atomic.Pointer[readLease]

	// ackTime[g][m] is the send time (on g's clock) of the newest grant
	// g issued to m — m's heartbeat-borne acknowledgment of g's
	// leadership. validUntil[g] caches the majority-th newest ack plus
	// the lease window: g holds the leader lease until then. Keyed by
	// granter, not epoch, so a deposed primary's leader lease decays by
	// time alone, exactly as it would across a real partition.
	ackTime    [][]atomic.Int64
	validUntil []atomic.Int64

	renewals       *obs.Counter
	expiries       *obs.Counter
	localPrimary   *obs.Counter // lease.local_strong_reads{role=primary}
	localSecondary *obs.Counter // lease.local_strong_reads{role=secondary}
	fallbacks      map[string]*obs.Counter
	violations     *obs.Counter
	epochGauge     *obs.Gauge

	auditMu   sync.Mutex
	exemplars [leaseExemplarCap]LeaseExemplar
	next      int
	filled    bool
}

func newLeaseManager(rs *ReplicaSet) *leaseManager {
	cfg := rs.cfg
	lm := &leaseManager{
		rs:       rs,
		enabled:  cfg.LinearizableLeases,
		duration: cfg.LeaseDuration,
		guard:    cfg.LeaseGuardBand,
		skew:     make([]atomic.Int64, cfg.Nodes),
		read:     make([]atomic.Pointer[readLease], cfg.Nodes),
		ackTime:  make([][]atomic.Int64, cfg.Nodes),
	}
	lm.validUntil = make([]atomic.Int64, cfg.Nodes)
	for i := range lm.ackTime {
		lm.ackTime[i] = make([]atomic.Int64, cfg.Nodes)
	}
	reg := rs.metrics
	lm.renewals = reg.Counter("lease.renewals")
	lm.expiries = reg.Counter("lease.expiries")
	lm.localPrimary = reg.Counter(obs.Name("lease.local_strong_reads", "role", "primary"))
	lm.localSecondary = reg.Counter(obs.Name("lease.local_strong_reads", "role", "secondary"))
	lm.fallbacks = make(map[string]*obs.Counter)
	for _, reason := range []string{
		LeaseReasonNoLease, LeaseReasonExpired, LeaseReasonCommitBehind,
		LeaseReasonNotPrimary, LeaseReasonPrimaryConfirm,
	} {
		lm.fallbacks[reason] = reg.Counter(obs.Name("lease.fallbacks", "reason", reason))
	}
	lm.violations = reg.Counter("lease.audit_violations")
	lm.epochGauge = reg.Gauge("lease.epoch")
	if lm.enabled {
		lm.epoch.Store(1)
		lm.epochGauge.Set(1)
	}
	return lm
}

// skewOf returns node id's clock offset.
func (lm *leaseManager) skewOf(id int) time.Duration {
	return time.Duration(lm.skew[id].Load())
}

// localNow is node id's local clock reading.
func (lm *leaseManager) localNow(id int) time.Duration {
	return lm.rs.env.Now() + lm.skewOf(id)
}

func (lm *leaseManager) epochValue() uint64 { return lm.epoch.Load() }

// grant issues (or renews) grantee's read lease and records the grant
// as a leadership acknowledgment for the granter's leader lease.
// sendAt is the simulation time the heartbeat left the granter —
// captured BEFORE the network traversal, so the leader-lease window is
// anchored at the conservative end. Grants are refused while a
// transfer drains and when the granter no longer holds primacy (the
// primaryID flip is published before endTransfer reopens grants, so a
// deposed primary's late heartbeat can never mint a new-epoch lease).
func (lm *leaseManager) grant(granter, grantee int, sendAt time.Duration, commit oplog.OpTime) {
	if !lm.enabled {
		return
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.draining || lm.rs.PrimaryID() != granter {
		return
	}
	ep := lm.epoch.Load()
	if old := lm.read[grantee].Load(); old != nil && lm.localNow(grantee) >= old.expiry {
		lm.expiries.Inc(1) // the previous lease lapsed before this renewal arrived
	}
	lm.read[grantee].Store(&readLease{
		epoch:  ep,
		commit: commit,
		expiry: lm.localNow(grantee) + lm.duration,
	})
	lm.grantedEpoch.Store(ep)
	lm.renewals.Inc(1)
	lm.ackTime[granter][grantee].Store(int64(sendAt + lm.skewOf(granter)))
	lm.validUntil[granter].Store(int64(lm.leaderDeadlineLocked(granter)))
}

// leaderDeadlineLocked computes g's leader-lease deadline on g's own
// clock: the (majority-1)-th newest grant acknowledgment plus the
// lease window, minus the guard band. Caller holds lm.mu.
func (lm *leaseManager) leaderDeadlineLocked(g int) time.Duration {
	need := lm.rs.cfg.Nodes/2 + 1
	if need <= 1 {
		// Single-member set: the node is its own majority.
		return lm.localNow(g) + lm.duration
	}
	acks := make([]int64, 0, len(lm.ackTime[g]))
	for i := range lm.ackTime[g] {
		if i == g {
			continue
		}
		if t := lm.ackTime[g][i].Load(); t > 0 {
			acks = append(acks, t)
		}
	}
	if len(acks) < need-1 {
		return 0
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	return time.Duration(acks[need-2]) + lm.duration - lm.guard
}

// leaderValid reports whether node g currently holds the leader lease
// (on g's own clock). Lock-free.
func (lm *leaseManager) leaderValid(g int) bool {
	if !lm.enabled {
		return false
	}
	vu := time.Duration(lm.validUntil[g].Load())
	return vu > 0 && lm.localNow(g) < vu
}

// checkRead validates node's read lease against its applied position.
// Returns the lease epoch on success, or the rejection reason.
// Lock-free: called on every linearizable secondary read.
func (lm *leaseManager) checkRead(node int, applied oplog.OpTime) (uint64, string) {
	l := lm.read[node].Load()
	if l == nil || l.epoch != lm.epoch.Load() {
		return 0, LeaseReasonNoLease
	}
	if lm.localNow(node) >= l.expiry-lm.guard {
		return 0, LeaseReasonExpired
	}
	if applied.Before(l.commit) {
		return 0, LeaseReasonCommitBehind
	}
	return l.epoch, ""
}

// holds reports whether node id can currently serve a linearizable
// read from a lease (leader lease for the primary, read lease
// otherwise) — the replstatus view the driver's server selection uses.
func (lm *leaseManager) holds(id, primary int) bool {
	if !lm.enabled {
		return false
	}
	if id == primary {
		return lm.leaderValid(id)
	}
	l := lm.read[id].Load()
	return l != nil && l.epoch == lm.epoch.Load() && lm.localNow(id) < l.expiry-lm.guard
}

func (lm *leaseManager) countFallback(reason string) {
	if c := lm.fallbacks[reason]; c != nil {
		c.Inc(1)
	}
}

// auditServe files one lease-served linearizable read and reports
// whether it was stale: a grant under a NEWER epoch had already been
// issued when the read completed, meaning the read outlived the drain
// of its own lease regime. With a correct guard band this never fires.
func (lm *leaseManager) auditServe(node int, servedEpoch, traceID uint64) bool {
	granted := lm.grantedEpoch.Load()
	violated := granted > servedEpoch
	if traceID != 0 || violated {
		lm.auditMu.Lock()
		lm.exemplars[lm.next] = LeaseExemplar{
			Node:      node,
			Epoch:     servedEpoch,
			Granted:   granted,
			Trace:     traceID,
			Violation: violated,
		}
		lm.next++
		if lm.next == leaseExemplarCap {
			lm.next = 0
			lm.filled = true
		}
		lm.auditMu.Unlock()
	}
	if violated {
		lm.violations.Inc(1)
	}
	return violated
}

// exemplarList returns the retained exemplars oldest-first.
func (lm *leaseManager) exemplarList() []LeaseExemplar {
	lm.auditMu.Lock()
	defer lm.auditMu.Unlock()
	if !lm.filled {
		out := make([]LeaseExemplar, lm.next)
		copy(out, lm.exemplars[:lm.next])
		return out
	}
	out := make([]LeaseExemplar, 0, leaseExemplarCap)
	out = append(out, lm.exemplars[lm.next:]...)
	out = append(out, lm.exemplars[:lm.next]...)
	return out
}

// beginTransfer starts a lease epoch transfer: bump the epoch, refuse
// all further grants, wipe the winner's inherited acknowledgments
// (pre-transfer acks are not leadership evidence under the new epoch)
// and return the simulation time by which every outstanding lease —
// read leases and leader leases, each translated from its holder's
// skewed clock — will have expired. The caller must sleep past that
// point (plus the guard band) before installing the new primary.
func (lm *leaseManager) beginTransfer(winner int) time.Duration {
	if !lm.enabled {
		return 0
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.draining = true
	lm.epoch.Add(1)
	var drain time.Duration
	for i := range lm.read {
		if l := lm.read[i].Load(); l != nil {
			if t := l.expiry - lm.skewOf(i); t > drain {
				drain = t
			}
		}
	}
	for g := range lm.validUntil {
		if vu := time.Duration(lm.validUntil[g].Load()); vu > 0 {
			// validUntil already subtracts the guard band; restore it for
			// the conservative raw deadline before de-skewing.
			if t := vu + lm.guard - lm.skewOf(g); t > drain {
				drain = t
			}
		}
	}
	for i := range lm.ackTime[winner] {
		lm.ackTime[winner][i].Store(0)
	}
	lm.validUntil[winner].Store(0)
	return drain
}

// endTransfer completes a transfer after the drain sleep and the
// primaryID flip: retire every old-epoch lease and the deposed
// primary's leadership state, then reopen grants under the new epoch.
func (lm *leaseManager) endTransfer(deposed int) {
	if !lm.enabled {
		return
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	ep := lm.epoch.Load()
	for i := range lm.read {
		if l := lm.read[i].Load(); l != nil && l.epoch < ep {
			lm.read[i].Store(nil)
			lm.expiries.Inc(1)
		}
	}
	for i := range lm.ackTime[deposed] {
		lm.ackTime[deposed][i].Store(0)
	}
	lm.validUntil[deposed].Store(0)
	lm.draining = false
	lm.epochGauge.Set(int64(ep))
}

// awaitLeaseholders blocks a w:majority acknowledgment until no live
// read lease could serve a linearizable read that misses the commit:
// every leaseholder has either applied the commit, been renewed past
// it (its lease commit point now covers the write, so serving implies
// applying), or let its lease lapse. Without this barrier a secondary
// holding a pre-write lease could serve a linearizable read missing a
// majority-acknowledged write. Bounded by the lease duration; in
// practice one heartbeat renewal clears it.
func (lm *leaseManager) awaitLeaseholders(p sim.Proc, commit oplog.OpTime) {
	if !lm.enabled || commit.IsZero() {
		return
	}
	poll := lm.rs.cfg.HeartbeatInterval / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	for {
		blocked := false
		for i, n := range lm.rs.nodes {
			l := lm.read[i].Load()
			if l == nil || lm.localNow(i) >= l.expiry {
				continue // no lease, or lapsed: cannot serve
			}
			if !l.commit.Before(commit) {
				continue // lease already covers the commit
			}
			if !n.LastApplied().Before(commit) {
				continue // node itself has applied the commit
			}
			blocked = true
			break
		}
		if !blocked {
			return
		}
		p.Sleep(poll)
	}
}

// ---- replica-set surface ----

// SetClockSkew injects a clock offset on one node: its local clock
// reads env.Now()+skew for every lease validity decision. The guard
// band must absorb any skew below it; tests drive this.
func (rs *ReplicaSet) SetClockSkew(id int, skew time.Duration) {
	rs.leases.skew[id].Store(int64(skew))
}

// LeaseEpoch returns the current lease epoch (0 = leases disabled).
func (rs *ReplicaSet) LeaseEpoch() uint64 { return rs.leases.epochValue() }

// Leased reports whether node id currently holds a valid lease (the
// leader lease for the primary, a read lease for a secondary).
func (rs *ReplicaSet) Leased(id int) bool {
	return rs.leases.holds(id, rs.PrimaryID())
}

// LeaseExemplars returns the lease auditor's recent exemplars (newest
// last).
func (rs *ReplicaSet) LeaseExemplars() []LeaseExemplar { return rs.leases.exemplarList() }

// Lease outcome attribute values recorded on cluster.lease spans.
const (
	leaseOutcomeLocal   = "lease-local"      // secondary served from its read lease
	leaseOutcomeLeader  = "leader-lease"     // primary served under its leader lease
	leaseOutcomeConfirm = "majority-confirm" // primary served after a majority confirmation round
)

// ExecReadLinearizableMeta runs a linearizable read at the chosen
// node. The primary serves locally under its leader lease (or, without
// one, after a majority confirmation round — the primary-only
// baseline); a secondary serves locally from a valid read lease whose
// commit point its lastApplied covers, and otherwise rejects with a
// retryable *LeaseError for the driver to fall back on. after is a
// causal prerequisite (session read-your-writes tokens compose with
// linearizable reads). Observability: a cluster.lease span when
// sampled, and — independently of sampling — the lease audit on every
// lease-served read, which pins the trace and fires
// lease.audit_violations if the read outlived its lease regime.
func (rs *ReplicaSet) ExecReadLinearizableMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta ReadMeta, fn func(v ReadView) (any, error)) (any, oplog.OpTime, error) {
	n := rs.nodes[nodeID]
	rs.net.Travel(p, rs.cfg.ClientZone, n.Zone)
	live := meta.Ctx.Live()
	var spanID uint64
	var start time.Duration
	if live {
		spanID = rs.tracer.NewSpanID()
		start = p.Now()
	}
	res, ts, outcome, servedEpoch, err := n.execReadLinearizable(p, after, fn)
	if err == nil && (outcome == leaseOutcomeLocal || outcome == leaseOutcomeLeader) {
		if rs.leases.auditServe(nodeID, servedEpoch, meta.Ctx.TraceID) {
			rs.tracer.Pin(meta.Ctx.TraceID)
		}
	}
	if live {
		attrs := []trace.Attr{
			{K: "rc", V: "linearizable"},
			{K: "outcome", V: outcome},
			{K: "epoch", V: strconv.FormatUint(servedEpoch, 10)},
		}
		if err == nil {
			attrs = append(attrs, trace.Attr{K: "optime", V: ts.String()})
		} else {
			attrs = append(attrs, trace.Attr{K: "err", V: err.Error()})
		}
		rs.tracer.Record(trace.Span{
			Trace:  meta.Ctx.TraceID,
			ID:     spanID,
			Parent: meta.Ctx.SpanID,
			Name:   "cluster.lease",
			Node:   nodeID,
			Start:  start,
			Dur:    p.Now() - start,
			Attrs:  attrs,
		})
	}
	rs.net.Travel(p, n.Zone, rs.cfg.ClientZone)
	return res, ts, err
}

// execReadLinearizable is the node-side linearizable read. It returns
// the outcome label and, for lease-served reads, the epoch the serving
// lease was granted under (the audit's input).
func (n *Node) execReadLinearizable(p sim.Proc, after oplog.OpTime, fn func(v ReadView) (any, error)) (any, oplog.OpTime, string, uint64, error) {
	rs := n.rs
	lm := rs.leases
	if n.Down() {
		return nil, oplog.Zero, "down", 0, ErrNodeDown
	}
	// Causal prerequisite first: a session's read-your-writes token
	// composes with linearizable reads exactly as with causal ones.
	for n.LastApplied().Before(after) {
		if n.Down() {
			return nil, oplog.Zero, "down", 0, ErrNodeDown
		}
		n.applyGate.Wait(p)
	}
	if rs.PrimaryID() == n.ID {
		if lm.enabled && lm.leaderValid(n.ID) {
			ep := lm.epochValue() // admission-time epoch, audited at completion
			res, err := n.execRead(p, fn)
			if err != nil {
				return nil, oplog.Zero, "err", ep, err
			}
			lm.localPrimary.Inc(1)
			return res, n.LastApplied(), leaseOutcomeLeader, ep, nil
		}
		// Majority-confirm fallback (and the leases-off baseline):
		// execute locally, then round-trip the served position through a
		// majority acknowledgment to confirm this node still held
		// primacy — MongoDB's linearizable read concern does the same
		// no-op write round.
		res, err := n.execRead(p, fn)
		if err != nil {
			return nil, oplog.Zero, "err", 0, err
		}
		ts := n.LastApplied()
		n.awaitMajorityKnown(p, ts)
		if rs.PrimaryID() != n.ID {
			lm.countFallback(LeaseReasonNotPrimary)
			return nil, oplog.Zero, LeaseReasonNotPrimary, 0, &LeaseError{Node: n.ID, Reason: LeaseReasonNotPrimary}
		}
		if lm.enabled {
			lm.countFallback(LeaseReasonPrimaryConfirm)
		}
		return res, ts, leaseOutcomeConfirm, 0, nil
	}
	if !lm.enabled {
		return nil, oplog.Zero, LeaseReasonNoLease, 0, &LeaseError{Node: n.ID, Reason: LeaseReasonNoLease}
	}
	ep, reason := lm.checkRead(n.ID, n.LastApplied())
	if reason != "" {
		lm.countFallback(reason)
		return nil, oplog.Zero, reason, 0, &LeaseError{Node: n.ID, Reason: reason}
	}
	res, err := n.execRead(p, fn)
	if err != nil {
		return nil, oplog.Zero, "err", ep, err
	}
	lm.localSecondary.Inc(1)
	return res, n.LastApplied(), leaseOutcomeLocal, ep, nil
}
