package cluster

import (
	"sort"
	"time"

	"decongestant/internal/obs/trace"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
)

// WriteConcern selects how many members must have applied a write
// before it is acknowledged, like MongoDB's `w` option. The paper's
// workloads use W1 (the fire-and-forget default of its era); WMajority
// is provided for applications that need durability across failovers.
type WriteConcern int

const (
	// W1 acknowledges after the primary's local commit.
	W1 WriteConcern = iota
	// WMajority acknowledges after a majority of members (including
	// the primary) are known to have applied the commit OpTime.
	WMajority
)

func (w WriteConcern) String() string {
	if w == WMajority {
		return "majority"
	}
	return "1"
}

// ExecWriteConcern runs a write transaction and blocks until the
// requested write concern is satisfied, returning the commit OpTime.
// With WMajority the caller parks on a per-OpTime waiter at the
// primary and is woken exactly when the majority commit point — which
// the primary learns from getMores and heartbeats — crosses the
// commit, instead of rescanning the known table on every gossip
// message.
func (rs *ReplicaSet) ExecWriteConcern(p sim.Proc, wc WriteConcern, fn func(tx WriteTxn) (any, error)) (any, oplog.OpTime, error) {
	return rs.ExecWriteConcernMeta(p, wc, ReadMeta{}, fn)
}

// ExecWriteConcernMeta is ExecWriteConcern with trace annotation: a
// live context records the primary-exec hop as a span carrying the
// commit OpTime, and for WMajority a separate span around the majority
// wait annotated with the OpTime it blocked on — making replication
// stalls attributable per operation.
func (rs *ReplicaSet) ExecWriteConcernMeta(p sim.Proc, wc WriteConcern, meta ReadMeta, fn func(tx WriteTxn) (any, error)) (any, oplog.OpTime, error) {
	live := meta.Ctx.Live()
	var execID uint64
	var start time.Duration
	primary := rs.PrimaryID()
	if live {
		execID = rs.tracer.NewSpanID()
		start = p.Now()
	}
	res, commit, err := rs.ExecWriteTracked(p, fn)
	if live {
		rs.tracer.Record(trace.Span{
			Trace:  meta.Ctx.TraceID,
			ID:     execID,
			Parent: meta.Ctx.SpanID,
			Name:   "node.exec_write",
			Node:   primary,
			Start:  start,
			Dur:    p.Now() - start,
			Attrs:  []trace.Attr{{K: "optime", V: commit.String()}},
		})
	}
	if err != nil || wc == W1 || commit.IsZero() {
		return res, commit, err
	}
	var waitStart time.Duration
	if live {
		waitStart = p.Now()
	}
	rs.Primary().awaitMajorityKnown(p, commit)
	// Leaseholder barrier (no-op when leases are off): a majority ack
	// is not enough once secondaries serve linearizable reads — every
	// live read lease must also cover the commit (by application or by
	// renewal) before the write is acknowledged, or a leased secondary
	// outside the majority could serve a linearizable read missing it.
	rs.leases.awaitLeaseholders(p, commit)
	if live {
		rs.tracer.Record(trace.Span{
			Trace:  meta.Ctx.TraceID,
			ID:     rs.tracer.NewSpanID(),
			Parent: meta.Ctx.SpanID,
			Name:   "write.majority_wait",
			Node:   primary,
			Start:  waitStart,
			Dur:    p.Now() - waitStart,
			Attrs: []trace.Attr{
				{K: "blocked_on", V: commit.String()},
				{K: "w", V: wc.String()},
			},
		})
	}
	return res, commit, nil
}

// countKnownAtLeastLocked reports how many members this node knows to
// have applied at least ts (itself included via its own lastApplied).
// The caller holds n.mu.
func (n *Node) countKnownAtLeastLocked(ts oplog.OpTime) int {
	count := 0
	for id, known := range n.known {
		applied := known
		if id == n.ID {
			applied = n.lastApplied
		}
		if !applied.Before(ts) {
			count++
		}
	}
	return count
}

// MajorityCommitPoint returns the highest OpTime this node knows a
// majority of members to have applied — MongoDB's majority commit
// point, the basis of read concern majority.
func (n *Node) MajorityCommitPoint() oplog.OpTime {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.majorityPointLocked()
}

func (n *Node) majorityPointLocked() oplog.OpTime {
	times := make([]oplog.OpTime, len(n.known))
	copy(times, n.known)
	times[n.ID] = n.lastApplied
	// Sort descending; the (majority-1) index is the newest OpTime
	// that at least a majority have reached.
	sort.Slice(times, func(i, j int) bool { return times[j].Before(times[i]) })
	return times[len(times)/2]
}
