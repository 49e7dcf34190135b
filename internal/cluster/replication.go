package cluster

import (
	"fmt"
	"slices"
	"time"

	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// startBackground launches the replica set's internal processes:
// oplog pullers, heartbeat gossip, checkpoints, and the idle-noop
// writer.
func (rs *ReplicaSet) startBackground() {
	for _, n := range rs.nodes {
		n := n
		rs.env.Spawn(fmt.Sprintf("repl/puller-%d", n.ID), n.pullerLoop)
		rs.env.Spawn(fmt.Sprintf("repl/checkpoint-%d", n.ID), n.checkpointLoop)
		for _, m := range rs.nodes {
			if m == n {
				continue
			}
			m := m
			rs.env.Spawn(fmt.Sprintf("repl/heartbeat-%d-to-%d", n.ID, m.ID), func(p sim.Proc) {
				n.heartbeatLoop(p, m)
			})
		}
	}
	rs.env.Spawn("repl/noop-writer", rs.noopLoop)
}

// pullerLoop is the secondary's replication fetcher: it issues getMore
// requests against the primary's oplog and applies the returned
// batches locally. Each getMore carries the member's lastApplied, so
// the primary learns of an applied batch when the next getMore arrives,
// one network traversal after the apply — the conservative
// over-estimate of §2.3. The getMore is MongoDB's awaitData kind: at a
// caught-up tail it waits at the primary for the next append (or for
// ReplIdlePoll), so the puller sends it straight after every batch and
// never polls an empty tail. When the primary is saturated or
// checkpointing, the getMore stalls and local lastApplied freezes —
// staleness rises gradually. Once a large batch finally arrives, the
// (uncongested) secondary applies it quickly and catches up —
// staleness collapses. This is the sawtooth of §4.5. The puller
// reuses one batch and one versions slice across getMores: once a
// batch is applied the log holds its entries, so the slices are free.
// It also keeps one chunk's worth of apply ops for oplog.ApplyBatch.
func (n *Node) pullerLoop(p sim.Proc) {
	rs := n.rs
	var buf []*oplog.Entry
	var vbuf []*storage.EncodedDoc
	ops := make([]storage.ApplyOp, 0, applyChunkSize)
	for {
		if rs.PrimaryID() == n.ID || n.Down() {
			p.Sleep(rs.cfg.ReplIdlePoll)
			continue
		}
		prim := rs.Primary()
		after, applied := n.fetchPoint()
		rs.net.Travel(p, n.Zone, prim.Zone)
		batch, versions, gapped := prim.serveGetMore(p, n.ID, after, applied, buf[:0], vbuf)
		rs.net.Travel(p, prim.Zone, n.Zone)
		n.obsOplogLag.Set(prim.OplogLast().LagSeconds(n.LastApplied()))
		if gapped {
			// Our fetch position fell off the primary's (hard-capped)
			// oplog; the log can no longer bring us up to date.
			n.resyncFrom(p, prim)
			continue
		}
		if len(batch) == 0 {
			// An awaitData getMore already waited at the primary; with
			// DisableTailWake the primary answers at once, and the
			// puller polls.
			if rs.cfg.DisableTailWake {
				p.Sleep(rs.cfg.ReplIdlePoll)
			}
			continue
		}
		n.applyBatch(p, batch, versions, ops)
		clear(batch) // keep no dropped entry or replaced version alive
		clear(versions)
		buf = batch[:0]
		if versions != nil {
			vbuf = versions[:0]
		}
	}
}

// fetchPoint returns the member's newest oplog entry, where its next
// getMore resumes, and its lastApplied, the progress that getMore
// reports.
func (n *Node) fetchPoint() (after, applied oplog.OpTime) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.log.Last(), n.lastApplied
}

// applyChunkSize is the most entries applyBatch lands per CPU charge
// and per oplog.ApplyBatch.
const applyChunkSize = 256

// applyBatch applies one fetched oplog batch: check every payload
// once, outside any lock, then apply chunk by chunk — paying the CPU
// queue per chunk, mutating the store under applyMu only (reads keep
// flowing), and taking the node write lock just for the bookkeeping
// flip. MongoDB secondaries do the same: batch preparation, the apply,
// then a single lastApplied advance (MongoDB fans the apply out over
// writer threads; here one applier lands each chunk in oplog order).
// versions are the primary's versions of the batch's sets (see
// serveGetMore); a batch that lost a corrupt entry splices every set.
// ops is the puller's scratch for oplog.ApplyBatch.
func (n *Node) applyBatch(p sim.Proc, batch []*oplog.Entry, versions []*storage.EncodedDoc, ops []storage.ApplyOp) {
	rs := n.rs
	batch, dropped, cerr := oplog.CheckBatch(batch)
	if dropped > 0 {
		n.noteApplyErrors(dropped, cerr)
		versions = nil
	}
	for start := 0; start < len(batch); start += applyChunkSize {
		end := min(start+applyChunkSize, len(batch))
		chunk := batch[start:end]
		work := 0
		for _, e := range chunk {
			if e.Kind != oplog.KindNoop {
				work++
			}
		}
		if work > 0 {
			cost := n.jitterCost(time.Duration(work) * rs.cfg.ApplyCost)
			if n.Checkpointing() {
				cost = time.Duration(float64(cost) * checkpointSlowdown)
			}
			n.cpu.Use(p, cost)
		}
		var vers []*storage.EncodedDoc
		if versions != nil {
			vers = versions[start:end]
		}
		n.applyChunk(chunk, vers, ops)
		n.applyGate.Broadcast() // release afterClusterTime waiters
	}
}

// applyChunk applies one checked chunk: one oplog.ApplyBatch under
// applyMu (serialized against commits, catch-up and resync, but NOT
// against readers), which adopts the primary's version of a set where
// it can and splices otherwise; the node write lock is held only to
// append the primary's entries themselves to this member's oplog and
// flip lastApplied.
func (n *Node) applyChunk(entries []*oplog.Entry, versions []*storage.EncodedDoc, ops []storage.ApplyOp) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	got, failed, err := oplog.ApplyBatch(n.store, entries, versions, ops)
	if failed > 0 {
		n.noteApplyErrors(failed, err)
	}
	n.noteSetApplies(got)
	n.mu.Lock()
	// Skip any prefix already in the log: a concurrent failover
	// catch-up can land the same entries first. Their store apply
	// above was idempotent; re-appending would be out of order.
	skip := 0
	for skip < len(entries) && !n.lastApplied.Before(entries[skip].TS) {
		skip++
	}
	entries = entries[skip:]
	if len(entries) == 0 {
		n.mu.Unlock()
		return
	}
	var dirty int64
	for _, e := range entries {
		if e.Kind != oplog.KindNoop {
			dirty += entryBytes(e)
		}
	}
	if err := n.log.AppendBatch(entries); err != nil {
		// Only possible if a role change appended newer entries
		// concurrently; the documents are already in the store, so
		// count the divergence and move on rather than wedge.
		n.noteApplyErrors(len(entries), err)
		n.mu.Unlock()
		return
	}
	last := entries[len(entries)-1].TS
	n.lastApplied = last
	n.known[n.ID] = last
	n.dirtyBytes += dirty
	n.stats.applied.Add(int64(len(entries)))
	n.wakeAckWaitersLocked()
	n.truncateSecondaryLocked()
	n.mu.Unlock()
}

// resyncFrom rebuilds this node from a snapshot of the primary: a
// shallow store clone (stored encodings are immutable, so sharing
// pointers is safe) plus the primary's lastApplied as the new oplog
// sync point. This is initial sync, reached when the node's fetch
// position fell off the primary's hard-capped oplog.
func (n *Node) resyncFrom(p sim.Proc, prim *Node) {
	prim.mu.RLock()
	snap := prim.store.CloneShallow()
	syncTo := prim.lastApplied
	prim.mu.RUnlock()
	// Charge CPU proportional to the data set: a full copy is far from
	// free, which is why falling off the oplog is worth avoiding.
	if docs := snap.TotalDocs(); docs > 0 {
		n.cpu.Use(p, n.jitterCost(time.Duration(docs)*n.rs.cfg.ApplyCost/8))
	}
	n.applyMu.Lock()
	n.mu.Lock()
	n.store = snap
	n.log.ResetTo(syncTo)
	n.lastApplied = syncTo
	n.known[n.ID] = syncTo
	n.dirtyBytes = 0
	n.wakeAckWaitersLocked()
	n.mu.Unlock()
	n.applyMu.Unlock()
	n.applyGate.Broadcast()
	n.stats.resyncs.Add(1)
	n.obsResyncs.Inc(1)
}

// serveGetMore services one oplog fetch at the primary for member
// `from`, which reports it has applied up to `applied`. It records that
// progress on arrival. A getMore that finds nothing after `after` is
// MongoDB's awaitData: it parks on the tail gate until the next append
// or for ReplIdlePoll. The check and the wait are not atomic on the
// real clock, so an append between them costs that one fetch the poll
// interval, never a hang; the timeout also bounds a member whose log
// is ahead of a new primary's. Only then does the getMore stall behind
// an in-progress checkpoint and compete for a CPU slot with client
// operations, so a congested primary still delivers the oplog late.
// The scan runs under the read lock — fetches never serialize behind
// commits — and the fetch-position update takes only fetchMu.
//
// The batch is the primary's own entries, appended to the caller's
// batch slice, which the secondary logs as they are. Alongside it, in
// the backing array of the caller's versions slice, it returns,
// parallel to the batch, the versions the primary produced: for each
// set entry whose document's current version here still carries the
// entry's TS as its stamp, that immutable version (nil elsewhere, and
// nil altogether when there is none). The members share the process,
// so a secondary stores it instead of splicing its own copy
// (oplog.ApplyBatch). The last result is true when `after` has been
// truncated away and the caller must resync.
func (n *Node) serveGetMore(p sim.Proc, from int, after, applied oplog.OpTime, batch []*oplog.Entry, versions []*storage.EncodedDoc) ([]*oplog.Entry, []*storage.EncodedDoc, bool) {
	n.setKnown(from, applied)
	if !n.rs.cfg.DisableTailWake && !after.Before(n.OplogLast()) {
		n.tailGate.WaitTimeout(p, n.rs.cfg.ReplIdlePoll)
	}
	start := p.Now()
	defer func() { n.obsGetMore.Observe(p.Now() - start) }()
	for n.Checkpointing() {
		n.ckptGate.Wait(p)
	}
	cost := n.jitterCost(n.rs.cfg.GetMoreCost)
	total := n.cpu.Use(p, cost)
	n.obsQueueWait.Observe(total - cost)
	n.mu.RLock()
	gapped := after.Before(n.log.TruncatedTo())
	if !gapped {
		batch = n.log.ScanAfter(batch, after, batchMax)
		versions = n.versionsLocked(versions, batch)
	}
	n.mu.RUnlock()
	n.stats.getMores.Add(1)
	if gapped {
		return nil, nil, true
	}
	n.stats.fetchedEntries.Add(int64(len(batch)))
	pos := after
	if len(batch) > 0 {
		pos = batch[len(batch)-1].TS
	}
	n.fetchMu.Lock()
	if n.fetchPos[from].Before(pos) {
		n.fetchPos[from] = pos
	}
	n.fetchMu.Unlock()
	return batch, versions, false
}

// versionsLocked returns, parallel to batch and in dst's backing array
// when it is large enough, the current version of each set entry's
// document when that version is the one the entry produced (its stamp
// is the entry's TS), or nil if no entry's is. Caller holds n.mu,
// under which commits stamp their versions.
func (n *Node) versionsLocked(dst []*storage.EncodedDoc, batch []*oplog.Entry) []*storage.EncodedDoc {
	var out []*storage.EncodedDoc
	var c *storage.Collection
	var coll string
	for i, e := range batch {
		if e.Kind != oplog.KindSet {
			continue
		}
		if c == nil || e.Collection != coll {
			coll = e.Collection
			if c, _ = n.store.Lookup(coll); c == nil {
				continue
			}
		}
		v, ok := c.FindByIDEncoded(e.DocID)
		if !ok || v.Stamp() != storage.Stamp(e.TS) {
			continue
		}
		if out == nil {
			out = slices.Grow(dst[:0], len(batch))[:len(batch)]
			clear(out)
		}
		out[i] = v
	}
	return out
}

// truncatePrimaryLocked caps the primary's oplog (commit-side: the
// write paths own truncation now that getMore only reads). Retention
// normally stops at the slowest LIVE member's fetch position — a down
// member no longer pins the log, which used to let one dead secondary
// grow the primary's memory without bound. OplogHardCap bounds the log
// even against live-but-slow fetchers; anyone cut off detects the gap
// on its next fetch and resyncs from a snapshot. Caller holds n.mu.
// The log truncates in O(dropped), so the 25% hysteresis only batches
// the cutoff bookkeeping, not a suffix copy.
func (n *Node) truncatePrimaryLocked() {
	cap := n.rs.cfg.OplogCap
	if cap <= 0 || n.log.Len() < cap+cap/4 {
		return
	}
	cutoff := n.lastApplied
	n.fetchMu.Lock()
	for id, ts := range n.fetchPos {
		if id == n.ID || n.rs.nodes[id].Down() {
			continue
		}
		if ts.Before(cutoff) {
			cutoff = ts
		}
	}
	n.fetchMu.Unlock()
	n.log.TruncateBefore(cutoff)
	if hard := n.rs.cfg.OplogHardCap; hard > 0 && n.log.Len() > hard {
		n.log.TruncateToLast(hard)
	}
}

// truncateSecondaryLocked keeps the newest OplogCap entries on a
// secondary (it serves no fetchers). Caller holds n.mu.
func (n *Node) truncateSecondaryLocked() {
	cap := n.rs.cfg.OplogCap
	if cap <= 0 || n.log.Len() < cap+cap/4 {
		return
	}
	n.log.TruncateToLast(cap)
}

// heartbeatLoop gossips n's lastApplied to m every HeartbeatInterval;
// the value in flight ages by one network traversal. When leases are
// enabled and n is the live primary, each heartbeat also carries a
// read-lease grant: the send time (captured BEFORE the traversal, so
// the leader-lease window is anchored conservatively) and the majority
// commit point observed at send time. The grant lands only if both
// ends are still up and n still holds primacy on arrival — and the
// lease manager re-verifies both drain state and primacy under its own
// lock, so a deposed primary's in-flight heartbeat can never mint a
// new-epoch lease.
func (n *Node) heartbeatLoop(p sim.Proc, m *Node) {
	rs := n.rs
	for {
		ts := n.LastApplied()
		grant := rs.leases.enabled && !n.Down() && rs.PrimaryID() == n.ID
		var sendAt time.Duration
		var commit oplog.OpTime
		if grant {
			sendAt = p.Now()
			commit = n.MajorityCommitPoint()
		}
		rs.net.Travel(p, n.Zone, m.Zone)
		m.setKnown(n.ID, ts)
		if grant && !m.Down() {
			rs.leases.grant(n.ID, m.ID, sendAt, commit)
		}
		p.Sleep(rs.cfg.HeartbeatInterval)
	}
}

// checkpointLoop models WiredTiger checkpoints: every interval, flush
// the dirty data accumulated since the last checkpoint. The duration
// grows with write volume; while flushing, the node's disk is
// saturated (writes and applies slow down) and getMore servicing is
// stalled — the mechanism the paper's §4.5 diagnosis describes.
func (n *Node) checkpointLoop(p sim.Proc) {
	rs := n.rs
	for {
		p.Sleep(rs.cfg.CheckpointInterval)
		n.mu.Lock()
		dirty := n.dirtyBytes
		n.dirtyBytes = 0
		n.mu.Unlock()
		if dirty == 0 {
			continue
		}
		mb := float64(dirty) / (1 << 20)
		dur := rs.cfg.CheckpointMinDuration + time.Duration(mb*float64(rs.cfg.CheckpointPerMB))
		if dur > rs.cfg.CheckpointMaxDuration {
			dur = rs.cfg.CheckpointMaxDuration
		}
		n.mu.Lock()
		n.checkpointing = true
		n.mu.Unlock()
		n.stats.checkpoints.Add(1)
		n.obsCkpts.Inc(1)
		p.Sleep(dur)
		n.mu.Lock()
		n.checkpointing = false
		n.mu.Unlock()
		n.obsCkptDur.Observe(dur)
		n.ckptGate.Broadcast()
	}
}

// entryBytes estimates an entry's dirty-page contribution. Inserts
// dirty far more than in-place field merges: fresh documents allocate
// new pages and touch every index (TPC-C's order/history inserts are
// what made the paper's checkpoints take ~30 s, §4.5), so they weigh
// 10x their payload; deletes touch a fixed amount of bookkeeping.
func entryBytes(e *oplog.Entry) int64 {
	const overhead = 64
	switch e.Kind {
	case oplog.KindInsert:
		return 10*int64(len(e.Payload)) + overhead
	case oplog.KindDelete:
		return 128
	default:
		return int64(len(e.Payload)) + overhead
	}
}

// noopLoop writes a periodic no-op oplog entry at the primary so that
// replication progress (and hence staleness) stays defined when the
// workload is idle. The primary is re-resolved every interval and
// commitNoop re-verifies liveness and primacy, so the noop writer
// never appends to a member that went down or was demoted since the
// last tick.
func (rs *ReplicaSet) noopLoop(p sim.Proc) {
	for {
		p.Sleep(rs.cfg.NoopInterval)
		rs.Primary().commitNoop(p)
	}
}
