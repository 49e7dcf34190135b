package cluster

import (
	"fmt"
	stdlog "log"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"decongestant/internal/obs"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// Node is one replica set member: a document store, an oplog, a CPU
// resource with a fixed number of service slots, and its (possibly
// lagging) knowledge of every member's lastAppliedOpTime.
type Node struct {
	ID   int
	Zone string

	rs  *ReplicaSet
	cpu *sim.Resource
	rng *rand.Rand

	// ckptGate releases getMore requests stalled behind a checkpoint.
	ckptGate sim.Gate
	// applyGate broadcasts whenever lastApplied advances, releasing
	// afterClusterTime reads waiting for causal consistency.
	applyGate sim.Gate
	// tailGate broadcasts whenever this node's oplog grows (wired to
	// the log's append hook), releasing the awaitData getMores parked
	// on a caught-up tail the instant new entries exist. Failover
	// broadcasts it too, so getMores parked at a deposed primary
	// return.
	tailGate sim.Gate

	// applyMu serializes every path that mutates the store: primary
	// commits, secondary batch application, failover catch-up and
	// resync snapshot swaps. It is ordered BEFORE n.mu and lets the
	// bulk of a batch apply run outside the node lock — readers keep
	// flowing while documents land, and n.mu is taken only for the
	// lastApplied/bookkeeping flip.
	applyMu sync.Mutex

	// mu guards all fields below with a reader-writer scheme: read
	// operations (execRead bodies, status snapshots, progress
	// accessors) hold the read lock and run in parallel on the
	// real-time env, while commits, oplog bookkeeping flips and
	// failover catch-up take the write lock. Virtual-time execution is
	// single-threaded, so there the lock is always uncontended and the
	// scheme costs nothing. The lock is never held across a blocking
	// environment primitive (Sleep/Acquire/Wait), which keeps
	// virtual-time runs deterministic and deadlock-free.
	mu            sync.RWMutex
	store         *storage.Store
	log           *oplog.Log
	lastApplied   oplog.OpTime
	known         []oplog.OpTime // per-member lastApplied as known here
	dirtyBytes    int64          // payload bytes written since the last checkpoint
	checkpointing bool
	// ackWaiters are write-concern waiters parked until the majority
	// commit point reaches their OpTime, sorted ascending by OpTime.
	// Guarded by mu; woken from setKnown and the commit/apply paths
	// instead of broadcasting every waiter on every gossip message.
	ackWaiters []ackWaiter

	// fetchMu guards fetchPos so getMore servicing never needs the
	// node write lock. Ordered AFTER n.mu (truncation reads fetchPos
	// while holding n.mu; serveGetMore takes fetchMu alone).
	fetchMu  sync.Mutex
	fetchPos []oplog.OpTime // primary: last oplog position fetched by each member

	// down is atomic so liveness checks (truncation cutoffs, the noop
	// writer) can consult other nodes without nesting node locks.
	down atomic.Bool

	// applyErrLogged makes the first replication apply failure loud
	// (subsequent ones only count).
	applyErrLogged atomic.Bool

	// stats are atomic so operation counting never forces a read path
	// onto the exclusive lock.
	stats nodeCounters

	// Registry instruments, labeled with this node's id. Counters and
	// gauges are atomic; the histograms carry their own mutex — none
	// of these require n.mu.
	obsReads     *obs.Counter
	obsWrites    *obs.Counter
	obsQueueWait *obs.Histogram // time spent waiting for a CPU slot
	obsGetMore   *obs.Histogram // getMore service latency (primary side)
	obsCkpts     *obs.Counter
	obsCkptDur   *obs.Histogram
	obsOplogLag  *obs.Gauge     // seconds behind the primary (secondary side)
	obsCommitLat *obs.Histogram // commit critical-section latency
	obsApplyErrs *obs.Counter   // replication apply/append failures
	obsResyncs   *obs.Counter   // snapshot resyncs after falling off the oplog
	obsAdopted   *obs.Counter   // applied sets that stored the primary's version
	obsSpliced   *obs.Counter   // applied sets that spliced their payload
}

// ackWaiter is one parked write-concern waiter: the commit OpTime it
// needs a majority to reach, and the mailbox that releases it.
type ackWaiter struct {
	ts oplog.OpTime
	mb sim.Mailbox
}

// NodeStats is a point-in-time snapshot of the operations a node has
// serviced, as returned by Node.Stats.
type NodeStats struct {
	Reads          int64
	Writes         int64
	GetMores       int64
	FetchedEntries int64 // oplog entries handed out via getMore
	Applied        int64
	Checkpoints    int64
	Statuses       int64
	GroupCommits   int64 // commits at this node, one per transaction
	GroupedTxns    int64 // transactions those commits carried (= GroupCommits)
	ApplyErrors    int64 // replication apply/append failures (were silent)
	Resyncs        int64 // snapshot resyncs after falling off the oplog
	// AdoptedSets and SplicedSets split the set entries this member's
	// puller applied: stored as the primary's own version, or spliced
	// into this member's copy (a miss; see oplog.ApplyBatch).
	AdoptedSets int64
	SplicedSets int64
}

// nodeCounters is the live, atomically-bumped form of NodeStats.
type nodeCounters struct {
	reads          atomic.Int64
	writes         atomic.Int64
	getMores       atomic.Int64
	fetchedEntries atomic.Int64
	applied        atomic.Int64
	checkpoints    atomic.Int64
	statuses       atomic.Int64
	commits        atomic.Int64
	applyErrors    atomic.Int64
	resyncs        atomic.Int64
	adoptedSets    atomic.Int64
	splicedSets    atomic.Int64
}

func newNode(rs *ReplicaSet, id int, zone string) *Node {
	n := &Node{
		ID:        id,
		Zone:      zone,
		rs:        rs,
		cpu:       sim.NewResource(rs.env, rs.cfg.CPUSlots),
		rng:       rs.env.NewRand(fmt.Sprintf("node-%d", id)),
		ckptGate:  rs.env.NewGate(),
		applyGate: rs.env.NewGate(),
		tailGate:  rs.env.NewGate(),
		store:     storage.NewStore(),
		log:       oplog.NewLog(),
		known:     make([]oplog.OpTime, rs.cfg.Nodes),
		fetchPos:  make([]oplog.OpTime, rs.cfg.Nodes),
	}
	// Tail-signaled fetch: every append (batched or single) wakes the
	// getMores parked on this node's oplog tail. The hook runs under
	// whatever lock the appender holds and must not block; a gate
	// broadcast only schedules wakeups.
	if !rs.cfg.DisableTailWake {
		n.log.OnAppend(n.tailGate.Broadcast)
	}
	node := strconv.Itoa(id)
	reg := rs.metrics
	n.obsReads = reg.Counter(obs.Name("cluster.reads", "node", node))
	n.obsWrites = reg.Counter(obs.Name("cluster.writes", "node", node))
	n.obsQueueWait = reg.Histogram(obs.Name("cluster.cpu_queue_wait", "node", node))
	n.obsGetMore = reg.Histogram(obs.Name("cluster.getmore_latency", "node", node))
	n.obsCkpts = reg.Counter(obs.Name("cluster.checkpoints", "node", node))
	n.obsCkptDur = reg.Histogram(obs.Name("cluster.checkpoint_duration", "node", node))
	n.obsOplogLag = reg.Gauge(obs.Name("cluster.oplog_lag_secs", "node", node))
	n.obsCommitLat = reg.Histogram(obs.Name("cluster.commit_latency", "node", node))
	n.obsApplyErrs = reg.Counter(obs.Name("cluster.apply_errors", "node", node))
	n.obsResyncs = reg.Counter(obs.Name("cluster.resyncs", "node", node))
	n.obsAdopted = reg.Counter(obs.Name("status.repl.set_applies", "how", "adopted", "node", node))
	n.obsSpliced = reg.Counter(obs.Name("status.repl.set_applies", "how", "spliced", "node", node))
	return n
}

// jitterCost applies +/- CostJitter uniform noise to a service time.
func (n *Node) jitterCost(d time.Duration) time.Duration {
	j := n.rs.cfg.CostJitter
	if j <= 0 {
		return d
	}
	f := 1 + j*(2*n.rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// LastApplied returns the node's own lastAppliedOpTime.
func (n *Node) LastApplied() oplog.OpTime {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.lastApplied
}

// setKnown records that member `id` had applied up to ts, as learned
// from a heartbeat or the progress a getMore carries. Knowledge never
// moves backward. When progress advances, only the write-concern
// waiters whose OpTime the new majority point covers are woken —
// gossip with no waiters costs one lock round, not a broadcast.
func (n *Node) setKnown(id int, ts oplog.OpTime) {
	n.mu.Lock()
	if n.known[id].Before(ts) {
		n.known[id] = ts
		n.wakeAckWaitersLocked()
	}
	n.mu.Unlock()
}

// Down reports whether the node is marked unavailable.
func (n *Node) Down() bool { return n.down.Load() }

// Checkpointing reports whether a checkpoint is in progress.
func (n *Node) Checkpointing() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.checkpointing
}

// OplogLast returns the OpTime of the node's newest oplog entry.
func (n *Node) OplogLast() oplog.OpTime {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.log.Last()
}

// Stats returns a snapshot of the node's operation counters. The
// counters are atomics, so the snapshot needs no lock and never
// contends with the node's operation paths.
func (n *Node) Stats() NodeStats {
	commits := n.stats.commits.Load()
	return NodeStats{
		Reads:          n.stats.reads.Load(),
		Writes:         n.stats.writes.Load(),
		GetMores:       n.stats.getMores.Load(),
		FetchedEntries: n.stats.fetchedEntries.Load(),
		Applied:        n.stats.applied.Load(),
		Checkpoints:    n.stats.checkpoints.Load(),
		Statuses:       n.stats.statuses.Load(),
		GroupCommits:   commits,
		GroupedTxns:    commits,
		ApplyErrors:    n.stats.applyErrors.Load(),
		Resyncs:        n.stats.resyncs.Load(),
		AdoptedSets:    n.stats.adoptedSets.Load(),
		SplicedSets:    n.stats.splicedSets.Load(),
	}
}

// QueueDepth returns the number of operations waiting for a CPU slot.
func (n *Node) QueueDepth() int { return n.cpu.Waiting() }

// commitStaged commits a transaction's staged mutations at the primary
// and returns the OpTime of its last entry. Both clocks run this one
// commit: the transaction takes applyMu and the n.mu write lock once,
// lands its mutations in the store, appends them to the oplog, releases
// the write-concern waiters its commit satisfies and enforces the oplog
// cap. A commit that fails changes nothing (see commitLocked).
func (n *Node) commitStaged(p sim.Proc, muts []*oplog.Entry) (oplog.OpTime, error) {
	if len(muts) == 0 {
		return oplog.Zero, nil
	}
	start := p.Now()
	n.applyMu.Lock()
	n.mu.Lock()
	last, err := n.commitLocked(start, muts)
	if err == nil {
		n.wakeAckWaitersLocked()
		n.truncatePrimaryLocked()
	}
	n.mu.Unlock()
	n.applyMu.Unlock()
	if err != nil {
		return oplog.Zero, err
	}
	n.applyGate.Broadcast()
	n.obsCommitLat.Observe(p.Now() - start)
	n.stats.commits.Add(1)
	return last, nil
}

// commitLocked lands one transaction's staged mutations in the store,
// then mints their timestamps, stamps the versions it stored with them
// and appends the staged entries themselves to the oplog in one batch
// (one tail notification per transaction); from then on they are
// immutable, and every member logs the same ones. The payloads were
// encoded at staging time: an insert's is stored as it is and a set's
// is spliced into the stored document, so nothing is serialized inside
// the critical section. Each mutation looks its _id up once, and
// returns the version it replaced. An insert fails if a commit since
// its staging stored a document with its _id. When any mutation fails,
// the versions before it are put back, newest first, and no timestamp
// is minted, so the store, the oplog and lastApplied are as they were
// and nothing replicates. Caller holds applyMu and the n.mu write
// lock, which also keeps every getMore from reading a stamp before it
// is set.
func (n *Node) commitLocked(now time.Duration, muts []*oplog.Entry) (oplog.OpTime, error) {
	var buf [4]change
	done := buf[:0]
	for _, m := range muts {
		if m.Kind == oplog.KindNoop {
			continue
		}
		ch := change{c: n.store.C(m.Collection), id: m.DocID}
		var err error
		switch m.Kind {
		case oplog.KindInsert:
			ch.e, err = ch.c.InsertEncoded(m.Payload)
		case oplog.KindSet:
			ch.old, ch.e, err = ch.c.ApplySetEncoded(m.DocID, m.Payload)
		case oplog.KindDelete:
			ch.old = ch.c.Delete(m.DocID)
		}
		if err != nil {
			restore(done)
			return oplog.Zero, err
		}
		done = append(done, ch)
	}
	var dirty int64
	j := 0
	for i := range muts {
		ts := n.log.NextTS(now)
		muts[i].TS = ts
		if muts[i].Kind == oplog.KindNoop {
			continue
		}
		dirty += entryBytes(muts[i])
		// Stamped in order, so a version that replaced this
		// transaction's own earlier one records that one's OpTime.
		if ch := done[j]; ch.e != nil {
			ch.e.SetStamps(storage.Stamp(ts), ch.old.Stamp())
		}
		j++
	}
	if err := n.log.AppendBatch(muts); err != nil {
		// NextTS mints above the log's last entry, so the batch is in
		// order; the store already holds the transaction.
		panic(fmt.Sprintf("cluster: commit append: %v", err))
	}
	last := muts[len(muts)-1].TS
	n.lastApplied = last
	n.known[n.ID] = last
	n.dirtyBytes += dirty
	return last, nil
}

// change is one committed mutation of document id: the version it
// replaced and the version it stored (each nil when absent).
type change struct {
	c      *storage.Collection
	id     string
	old, e *storage.EncodedDoc
}

// restore puts the replaced versions back, newest first, as the very
// objects they were. Each step returns its collection to a state it
// held before, which its indexes accepted, so a restore cannot fail.
func restore(done []change) {
	for i := len(done) - 1; i >= 0; i-- {
		ch := done[i]
		if err := ch.c.Restore(ch.id, ch.old); err != nil {
			panic(fmt.Sprintf("cluster: restoring %q after a failed commit: %v", ch.id, err))
		}
	}
}

// commitNoop appends one no-op entry if this node is still a live
// primary. Both conditions are re-verified here because the noop
// writer races failovers and outages: a noop must never land on a
// demoted or downed member's log.
func (n *Node) commitNoop(p sim.Proc) {
	if n.Down() || n.rs.PrimaryID() != n.ID {
		return
	}
	_, _ = n.commitStaged(p, []*oplog.Entry{{Kind: oplog.KindNoop}})
}

// noteApplyErrors counts replication apply/append failures in the
// node's stats and the registry. The old puller silently swallowed
// these errors; now every failure is visible, and the first occurrence
// is logged so divergence can be traced without scraping metrics.
func (n *Node) noteApplyErrors(count int, err error) {
	if count <= 0 {
		return
	}
	n.stats.applyErrors.Add(int64(count))
	n.obsApplyErrs.Inc(uint64(count))
	if err != nil && n.applyErrLogged.CompareAndSwap(false, true) {
		stdlog.Printf("cluster: node %d: first replication apply error (%d entries failed): %v", n.ID, count, err)
	}
}

// noteSetApplies counts how a replication apply stored its sets.
func (n *Node) noteSetApplies(got storage.ApplyCounts) {
	if got.Adopted > 0 {
		n.stats.adoptedSets.Add(int64(got.Adopted))
		n.obsAdopted.Inc(uint64(got.Adopted))
	}
	if got.Spliced > 0 {
		n.stats.splicedSets.Add(int64(got.Spliced))
		n.obsSpliced.Inc(uint64(got.Spliced))
	}
}

// awaitMajorityKnown blocks p until this node knows a majority of
// members (itself included) to have applied ts. Each waiter registers
// its OpTime once and is woken exactly when the majority commit point
// crosses it — the old scheme broadcast a gate on every heartbeat and
// had every waiter rescan the known table.
func (n *Node) awaitMajorityKnown(p sim.Proc, ts oplog.OpTime) {
	need := n.rs.cfg.Nodes/2 + 1
	n.mu.Lock()
	if n.countKnownAtLeastLocked(ts) >= need {
		n.mu.Unlock()
		return
	}
	w := ackWaiter{ts: ts, mb: n.rs.env.NewMailbox()}
	i := sort.Search(len(n.ackWaiters), func(i int) bool { return ts.Before(n.ackWaiters[i].ts) })
	n.ackWaiters = append(n.ackWaiters, ackWaiter{})
	copy(n.ackWaiters[i+1:], n.ackWaiters[i:])
	n.ackWaiters[i] = w
	n.mu.Unlock()
	w.mb.Recv(p)
}

// wakeAckWaitersLocked releases the write-concern waiters whose OpTime
// the majority commit point has reached. The slice is sorted by
// OpTime, so satisfied waiters form a prefix. Caller holds the n.mu
// write lock; Mailbox.Send never blocks.
func (n *Node) wakeAckWaitersLocked() {
	if len(n.ackWaiters) == 0 {
		return
	}
	point := n.majorityPointLocked()
	i := 0
	for i < len(n.ackWaiters) && !point.Before(n.ackWaiters[i].ts) {
		n.ackWaiters[i].mb.Send(nil)
		i++
	}
	if i > 0 {
		n.ackWaiters = append(n.ackWaiters[:0], n.ackWaiters[i:]...)
	}
}

// ---- transactional views ----

// ReadView provides read access to a store inside an ExecRead or
// ExecWrite body. The in-process implementation meters work in read
// units that translate to CPU service time; the wire client implements
// the same interface with one network round trip per call.
//
// Every document an in-process view returns is decoded from committed
// state for this call. Results are read-only by contract all the same:
// layers above (the driver's read cache) share them between callers.
// A body must not keep its view past its return: in-process views are
// recycled.
type ReadView interface {
	// FindByID looks up one document by _id. The result is read-only
	// for the caller.
	FindByID(collection, id string) (storage.Document, bool)
	// FindManyByID batch-fetches documents by _id.
	FindManyByID(collection string, ids []string) []storage.Document
	// Find runs a filtered query (limit 0 = unlimited).
	Find(collection string, f storage.Filter, limit int) []storage.Document
	// Count counts matching documents.
	Count(collection string, f storage.Filter) int
	// AddUnits charges extra read work units for computation on results.
	AddUnits(u int)
}

// EncodedReadView is an optional extension of ReadView implemented by
// the in-process view: read results as storage.EncodedDoc, each
// committed document's stored BSON-lite encoding. The wire server
// type-asserts for it and splices the stored bytes straight into
// response frames, with no decode or encode per request. Remote views
// do not implement it — callers must fall back to the Document forms.
type EncodedReadView interface {
	// FindByIDEncoded is FindByID returning the stored form.
	FindByIDEncoded(collection, id string) (*storage.EncodedDoc, bool)
	// FindManyByIDEncoded is FindManyByID returning the stored forms.
	FindManyByIDEncoded(collection string, ids []string) []*storage.EncodedDoc
	// FindEncoded is Find returning the stored forms.
	FindEncoded(collection string, f storage.Filter, limit int) []*storage.EncodedDoc
}

// WriteTxn extends ReadView with buffered mutations that commit at the
// end of the transaction's service time.
type WriteTxn interface {
	ReadView
	// Insert adds a new document at commit time.
	Insert(collection string, doc storage.Document) error
	// Set merges fields into the identified document (upserting),
	// logging post-image values so replication is idempotent.
	Set(collection, id string, fields storage.Document) error
	// Delete removes the identified document at commit, if present.
	Delete(collection, id string) error
}

// localReadView is the in-process ReadView over a node's store.
type localReadView struct {
	node      *Node
	readUnits int
}

// readViews recycles execRead's views. A body receives its view as an
// interface, so a view made per read would escape to the heap on every
// read.
var readViews = sync.Pool{New: func() any { return new(localReadView) }}

// FindByID looks up one document (1 read unit), decoding it from its
// stored form.
func (v *localReadView) FindByID(collection, id string) (storage.Document, bool) {
	v.readUnits++
	return v.node.store.C(collection).FindByID(id)
}

// Find runs a filtered query; it costs 1 unit plus one per four
// returned documents — an index-assisted batch scan amortizes per-
// document overhead, unlike repeated point lookups.
func (v *localReadView) Find(collection string, f storage.Filter, limit int) []storage.Document {
	docs := v.node.store.C(collection).Find(f, limit)
	v.readUnits += 1 + len(docs)/4
	return docs
}

// FindManyByID batch-fetches documents by _id (a $in on the _id
// index); it costs 1 unit plus one per eight ids — cheaper per
// document than individual FindByID calls.
func (v *localReadView) FindManyByID(collection string, ids []string) []storage.Document {
	c := v.node.store.C(collection)
	out := make([]storage.Document, 0, len(ids))
	for _, id := range ids {
		if d, ok := c.FindByID(id); ok {
			out = append(out, d)
		}
	}
	v.readUnits += 1 + (len(ids)+7)/8
	return out
}

// Count counts matching documents (1 unit plus one per 4 matches).
func (v *localReadView) Count(collection string, f storage.Filter) int {
	c := v.node.store.C(collection).Count(f)
	v.readUnits += 1 + c/4
	return c
}

// AddUnits charges extra read units for computation done on results.
func (v *localReadView) AddUnits(u int) { v.readUnits += u }

// FindByIDEncoded implements EncodedReadView (1 read unit, like
// FindByID): the wire server's binary path reads through it to reach
// the document's stored BSON-lite encoding.
func (v *localReadView) FindByIDEncoded(collection, id string) (*storage.EncodedDoc, bool) {
	v.readUnits++
	return v.node.store.C(collection).FindByIDEncoded(id)
}

// FindManyByIDEncoded implements EncodedReadView with FindManyByID's
// unit charging.
func (v *localReadView) FindManyByIDEncoded(collection string, ids []string) []*storage.EncodedDoc {
	c := v.node.store.C(collection)
	out := make([]*storage.EncodedDoc, 0, len(ids))
	for _, id := range ids {
		if e, ok := c.FindByIDEncoded(id); ok {
			out = append(out, e)
		}
	}
	v.readUnits += 1 + (len(ids)+7)/8
	return out
}

// FindEncoded implements EncodedReadView with Find's unit charging.
func (v *localReadView) FindEncoded(collection string, f storage.Filter, limit int) []*storage.EncodedDoc {
	docs := v.node.store.C(collection).FindEncoded(f, limit)
	v.readUnits += 1 + len(docs)/4
	return docs
}

// localWriteTxn is the in-process WriteTxn. Mutations are buffered
// while the transaction body runs and committed — applied to the
// primary's store and appended to the oplog — only after the
// transaction's service time elapses, so a write becomes visible to
// replication (and to other clients) when it commits, not when it is
// issued. Reads inside the transaction see the pre-transaction state;
// reading a document the same transaction wrote is not supported (the
// workloads in this repository never do).
type localWriteTxn struct {
	localReadView
	// muts are the oplog entries the commit appends, staged without
	// timestamps. Normalization and payload encoding happen at staging
	// time, on the writer's own service time and outside any lock, so
	// the commit critical section is reduced to byte splices, timestamp
	// minting and the oplog append. An insert's payload becomes the
	// stored document, and each entry, once committed, is the one every
	// member's oplog holds.
	muts []*oplog.Entry
}

// Insert adds a new document at commit time. A duplicate _id is caught
// when the insert is staged, against the pre-transaction state and this
// transaction's own buffered inserts, and again at commit, against
// whatever committed in between.
func (t *localWriteTxn) Insert(collection string, doc storage.Document) error {
	norm, err := doc.Canonicalized()
	if err != nil {
		return err
	}
	id, ok := norm["_id"].(string)
	if !ok || id == "" {
		return fmt.Errorf("cluster: insert requires a string _id")
	}
	if _, exists := t.node.store.C(collection).FindByIDEncoded(id); exists {
		return fmt.Errorf("cluster: duplicate _id %q in %s", id, collection)
	}
	for _, m := range t.muts {
		if m.Kind == oplog.KindInsert && m.Collection == collection && m.DocID == id {
			return fmt.Errorf("cluster: duplicate _id %q in %s (within transaction)", id, collection)
		}
	}
	t.muts = append(t.muts, &oplog.Entry{Kind: oplog.KindInsert, Collection: collection, DocID: id, Payload: storage.EncodeDoc(norm)})
	return nil
}

// Set merges fields into the identified document (upserting at commit),
// logging post-image values so replication is idempotent.
func (t *localWriteTxn) Set(collection, id string, fields storage.Document) error {
	norm, err := fields.Canonicalized()
	if err != nil {
		return err
	}
	t.muts = append(t.muts, &oplog.Entry{Kind: oplog.KindSet, Collection: collection, DocID: id, Payload: storage.EncodeDoc(norm)})
	return nil
}

// Delete removes the identified document at commit, if present.
func (t *localWriteTxn) Delete(collection, id string) error {
	t.muts = append(t.muts, &oplog.Entry{Kind: oplog.KindDelete, Collection: collection, DocID: id})
	return nil
}

// writeOps returns the number of buffered mutations.
func (t *localWriteTxn) writeOps() int { return len(t.muts) }
