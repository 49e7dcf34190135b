package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"decongestant/internal/oplog"
	"decongestant/internal/sim"
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
// requests against the primary's oplog and applies the returned batches
// locally, then reports progress. When the primary is saturated or
// checkpointing, the getMore stalls and local lastApplied freezes —
// staleness rises gradually. Once a large batch finally arrives, the
// (uncongested) secondary applies it quickly and catches up — staleness
// collapses. This is the sawtooth of §4.5.
func (n *Node) pullerLoop(p sim.Proc) {
	rs := n.rs
	progressName := fmt.Sprintf("repl/progress-%d", n.ID)
	for {
		if rs.PrimaryID() == n.ID || n.Down() {
			p.Sleep(rs.cfg.ReplIdlePoll)
			continue
		}
		prim := rs.Primary()
		after := n.OplogLast()
		rs.net.Travel(p, n.Zone, prim.Zone)
		batch, gapped := prim.serveGetMore(p, n.ID, after)
		rs.net.Travel(p, prim.Zone, n.Zone)
		n.obsOplogLag.Set(prim.OplogLast().LagSeconds(n.LastApplied()))
		if gapped {
			// Our fetch position fell off the primary's (hard-capped)
			// oplog; the log can no longer bring us up to date.
			n.resyncFrom(p, prim)
			continue
		}
		if len(batch) == 0 {
			n.waitForTail(p, prim, after)
			continue
		}
		n.applyBatch(p, batch)
		// Report replication progress to the primary; it arrives one
		// network traversal later, so the primary's knowledge lags —
		// the conservative over-estimate of §2.3.
		ts := n.LastApplied()
		from, to := n, prim
		rs.env.Spawn(progressName, func(q sim.Proc) {
			rs.net.Travel(q, from.Zone, to.Zone)
			to.setKnown(from.ID, ts)
		})
	}
}

// waitForTail parks an idle puller until the primary appends — its
// oplog's tail-notification hook broadcasts the gate — or until the
// poll interval elapses. The signal is an optimization, not a
// correctness dependency: a wakeup missed between the emptiness check
// and the wait degrades to the old ReplIdlePoll latency, never a hang.
// It also guards the post-failover case where this node's log is ahead
// of the new primary's: there is nothing to fetch and nothing to wake
// on, so only the timed wait prevents a hot fetch loop.
func (n *Node) waitForTail(p sim.Proc, prim *Node, after oplog.OpTime) {
	rs := n.rs
	if rs.cfg.DisableTailWake {
		p.Sleep(rs.cfg.ReplIdlePoll)
		return
	}
	if after.Before(prim.OplogLast()) {
		return // the tail moved while the empty batch was in flight
	}
	prim.tailGate.WaitTimeout(p, rs.cfg.ReplIdlePoll)
}

// applyBatch applies one fetched oplog batch: decode every entry ONCE,
// outside any lock, then apply chunk by chunk — paying the CPU queue
// per chunk, mutating the store under applyMu only (reads keep
// flowing), and taking the node write lock just for the bookkeeping
// flip. MongoDB secondaries do the same: batch decode, parallel
// appliers, then a single lastApplied advance.
func (n *Node) applyBatch(p sim.Proc, batch []oplog.Entry) {
	rs := n.rs
	decoded, dropped, derr := oplog.DecodeBatch(batch)
	if dropped > 0 {
		n.noteApplyErrors(dropped, derr)
	}
	const chunkSize = 256
	for start := 0; start < len(decoded); start += chunkSize {
		chunk := decoded[start:min(start+chunkSize, len(decoded))]
		work := 0
		for _, e := range chunk {
			if e.Kind != oplog.KindNoop {
				work++
			}
		}
		if work > 0 {
			cost := n.jitterCost(time.Duration(work) * rs.cfg.ApplyCost)
			if n.Checkpointing() {
				cost = time.Duration(float64(cost) * rs.cfg.CheckpointSlowdown)
			}
			n.cpu.Use(p, cost)
		}
		n.applyChunk(chunk)
		n.applyGate.Broadcast() // release afterClusterTime waiters
	}
}

// applyChunk applies one decoded chunk. Store mutation happens under
// applyMu (serialized against commits, catch-up and resync, but NOT
// against readers); the node write lock is held only to append the
// oplog entries and flip lastApplied.
func (n *Node) applyChunk(chunk []oplog.DecodedEntry) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	if failed, err := n.applyChunkToStore(chunk); failed > 0 {
		n.noteApplyErrors(failed, err)
	}
	entries := make([]oplog.Entry, len(chunk))
	for i, e := range chunk {
		entries[i] = e.Entry
	}
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

// parallelApplyMin is the chunk size below which fanning out to
// appliers costs more than it saves.
const parallelApplyMin = 64

// parallelAppliers is the secondary's applier pool width, as MongoDB's
// replWriterThreadCount bounds its batch appliers.
var parallelAppliers = min(4, runtime.GOMAXPROCS(0))

// applyChunkToStore lands a decoded chunk's documents in the store.
// Caller holds applyMu. On the real-time env, large chunks fan out
// across appliers partitioned by (collection, docID) hash: every entry
// for a given document lands in the same partition, preserving per-
// document ordering, while distinct documents apply in parallel. The
// virtual-time env always applies sequentially — parallelism there
// would change the event schedule and break run-for-run determinism.
func (n *Node) applyChunkToStore(chunk []oplog.DecodedEntry) (int, error) {
	workers := parallelAppliers
	if !n.rs.realtime || workers < 2 || len(chunk) < parallelApplyMin {
		_, failed, err := oplog.ApplyDecodedBatch(n.store, chunk)
		return failed, err
	}
	parts := make([][]oplog.DecodedEntry, workers)
	for _, e := range chunk {
		w := applierHash(e.Collection, e.DocID) % uint32(workers)
		parts[w] = append(parts[w], e)
	}
	var wg sync.WaitGroup
	var failed atomic.Int64
	errs := make([]error, workers)
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, part []oplog.DecodedEntry) {
			defer wg.Done()
			_, f, err := oplog.ApplyDecodedBatch(n.store, part)
			failed.Add(int64(f))
			errs[i] = err
		}(i, part)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err != nil {
			first = err
			break
		}
	}
	return int(failed.Load()), first
}

// applierHash is FNV-1a over collection + docID, the applier
// partitioning key.
func applierHash(collection, id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(collection); i++ {
		h = (h ^ uint32(collection[i])) * 16777619
	}
	h = (h ^ '/') * 16777619
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return h
}

// resyncFrom rebuilds this node from a snapshot of the primary: a
// shallow store clone (committed documents are immutable under
// copy-on-write, so sharing pointers is safe) plus the primary's
// lastApplied as the new oplog sync point. This is initial sync,
// reached when the node's fetch position fell off the primary's
// hard-capped oplog.
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

// serveGetMore services one oplog fetch at the primary. It stalls
// behind an in-progress checkpoint and then competes for a CPU slot
// with client operations, so a congested primary delivers the oplog
// late. The scan itself runs under the read lock — fetches no longer
// serialize behind commits — and the fetch-position update takes only
// fetchMu. The second result is true when `after` has been truncated
// away and the caller must resync.
func (n *Node) serveGetMore(p sim.Proc, from int, after oplog.OpTime) ([]oplog.Entry, bool) {
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
	var batch []oplog.Entry
	if !gapped {
		batch = n.log.ScanAfter(after, n.rs.cfg.BatchMax)
	}
	n.mu.RUnlock()
	n.stats.getMores.Add(1)
	if gapped {
		return nil, true
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
	return batch, false
}

// truncatePrimaryLocked caps the primary's oplog (commit-side: the
// write paths own truncation now that getMore only reads). Retention
// normally stops at the slowest LIVE member's fetch position — a down
// member no longer pins the log, which used to let one dead secondary
// grow the primary's memory without bound. OplogHardCap bounds the log
// even against live-but-slow fetchers; anyone cut off detects the gap
// on its next fetch and resyncs from a snapshot. Caller holds n.mu.
// The ring truncates in O(dropped), so the 25% hysteresis only batches
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
func entryBytes(e oplog.Entry) int64 {
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
