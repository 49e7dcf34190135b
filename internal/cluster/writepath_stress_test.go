package cluster

// Write-path stress and correctness tests: the primary's commit,
// tail-signaled oplog fetch, batch apply at secondaries, per-OpTime
// majority-ack waiters, down-member-aware truncation, and apply-error
// accounting. The realtime stress test is the -race companion of
// TestRealtimeConcurrencyStress, aimed at the write side: many
// concurrent w:majority writers contending on the primary's applyMu,
// bulk transactions that fill multi-entry apply chunks on secondaries,
// and failovers mid-batch.

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"decongestant/internal/obs"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

const (
	wpWriters = 8
	wpIters   = 200
	wpBulkTxn = 96 // entries per bulk transaction: one chunk applies many
)

func TestWritePathStress(t *testing.T) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	cfg := zeroCostConfig(8)
	cfg.ReplIdlePoll = time.Millisecond
	cfg.HeartbeatInterval = 5 * time.Millisecond
	cfg.OplogCap = 1_000_000
	rs := New(env, cfg)
	err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C("wp")
		for i := 0; i < stressDocs; i++ {
			if err := c.Insert(storage.D{"_id": stressDocID(i), "val": int64(0)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// w:majority writers: every acknowledged write commits under the
	// primary's applyMu and then parks on a per-OpTime ack waiter.
	for w := 0; w < wpWriters; w++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			p := env.Adhoc(fmt.Sprintf("wp/writer-%d", idx))
			rng := rand.New(rand.NewSource(int64(idx)))
			field := fmt.Sprintf("w%d", idx)
			for i := 0; i < wpIters; i++ {
				id := stressDocID(rng.Intn(stressDocs))
				_, _, err := rs.ExecWriteConcern(p, WMajority, func(tx WriteTxn) (any, error) {
					return nil, tx.Set("wp", id, storage.D{field: int64(i)})
				})
				if !writeRaceOK(err) {
					fail(err)
					return
				}
			}
		}(w)
	}

	// Bulk writers: wide transactions whose oplog batches secondaries
	// apply many entries per chunk while readers run.
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			p := env.Adhoc(fmt.Sprintf("wp/bulk-%d", idx))
			rng := rand.New(rand.NewSource(int64(50 + idx)))
			for i := 0; i < 20; i++ {
				base := rng.Intn(stressDocs - wpBulkTxn)
				_, err := rs.ExecWrite(p, func(tx WriteTxn) (any, error) {
					for j := 0; j < wpBulkTxn; j++ {
						if err := tx.Set("wp", stressDocID(base+j), storage.D{"bulk": int64(i)}); err != nil {
							return nil, err
						}
					}
					return nil, nil
				})
				if !writeRaceOK(err) {
					fail(err)
					return
				}
			}
		}(b)
	}

	// Readers: point reads on random nodes while chunks apply under
	// applyMu — the interleavings the race detector should vet.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			p := env.Adhoc(fmt.Sprintf("wp/reader-%d", idx))
			rng := rand.New(rand.NewSource(int64(100 + idx)))
			for i := 0; i < wpIters; i++ {
				node := rng.Intn(cfg.Nodes)
				id := stressDocID(rng.Intn(stressDocs))
				_, err := rs.ExecRead(p, node, func(v ReadView) (any, error) {
					if d, ok := v.FindByID("wp", id); ok {
						_ = d.Int("val")
					}
					return nil, nil
				})
				if err != nil {
					fail(err)
					return
				}
			}
		}(r)
	}

	// Failovers mid-batch, same cadence as the PR 3 stress test.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := env.Adhoc("wp/failover")
		for i := 0; i < 3; i++ {
			time.Sleep(20 * time.Millisecond)
			rs.Failover(p)
		}
	}()

	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Each commit carries exactly one transaction, on every node, and
	// the pullers stored the primary's versions of sets while readers
	// read them on the secondaries.
	var commits, adopted int64
	for _, id := range rs.NodeIDs() {
		st := rs.Node(id).Stats()
		if st.GroupCommits != st.GroupedTxns {
			t.Fatalf("node %d: %d commits carried %d transactions", id, st.GroupCommits, st.GroupedTxns)
		}
		commits += st.GroupCommits
		adopted += st.AdoptedSets
	}
	if commits == 0 {
		t.Fatal("no commits at any node")
	}
	if adopted == 0 {
		t.Fatal("no puller adopted the primary's version of a set")
	}

	// Replication survived: a majority of members (primary included)
	// reaches the primary's applied point once writers stop. (The third
	// member can legitimately carry a divergent tail from a write that
	// raced a failover, so we require a majority, not all three.)
	deadline := time.Now().Add(5 * time.Second)
	for {
		prim := rs.Primary()
		top := prim.LastApplied()
		caughtUp := 0
		for _, id := range rs.NodeIDs() {
			if !rs.Node(id).LastApplied().Before(top) {
				caughtUp++
			}
		}
		if caughtUp >= cfg.Nodes/2+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d members reached the primary's applied point", caughtUp, cfg.Nodes)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Acknowledged writer increments are visible on the final primary.
	p := env.Adhoc("wp/final")
	res, err := rs.ExecRead(p, rs.PrimaryID(), func(v ReadView) (any, error) {
		var seen int64
		for i := 0; i < stressDocs; i++ {
			if d, ok := v.FindByID("wp", stressDocID(i)); ok {
				for w := 0; w < wpWriters; w++ {
					if _, ok := d[fmt.Sprintf("w%d", w)]; ok {
						seen++
					}
				}
			}
		}
		return seen, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.(int64) == 0 {
		t.Fatal("no writer fields visible on the final primary")
	}
}

// writeRaceOK tolerates the one legitimate failure mode of a write
// racing a failover between the primary check and the commit.
func writeRaceOK(err error) bool {
	return err == nil || err == ErrNotPrimary
}

// TestWritePathVirtualDeterminism: the virtual-time environment runs
// the same commit and apply code as the real clock and must stay
// deterministic. Two runs with the same seed produce byte-identical
// OpTime sequences on every node and identical final data.
func TestWritePathVirtualDeterminism(t *testing.T) {
	run := func() string {
		env := sim.NewEnv(77)
		defer env.Shutdown()
		cfg := fastConfig()
		cfg.ReplIdlePoll = 5 * time.Millisecond
		cfg.NoopInterval = 50 * time.Millisecond
		cfg.OplogCap = 100_000
		rs := New(env, cfg)
		for w := 0; w < 2; w++ {
			w := w
			env.Spawn(fmt.Sprintf("writer-%d", w), func(p sim.Proc) {
				for i := 0; i < 30; i++ {
					id := fmt.Sprintf("d%d-%d", w, i%7)
					switch {
					case i%5 == 4:
						rs.ExecWrite(p, func(tx WriteTxn) (any, error) {
							return nil, tx.Delete("kv", id)
						})
					case i%2 == 0:
						rs.ExecWriteConcern(p, WMajority, func(tx WriteTxn) (any, error) {
							return nil, tx.Set("kv", id, storage.D{"v": int64(i)})
						})
					default:
						rs.ExecWrite(p, func(tx WriteTxn) (any, error) {
							return nil, tx.Set("kv", id, storage.D{"u": int64(i)})
						})
					}
					p.Sleep(7 * time.Millisecond)
				}
			})
		}
		env.Spawn("operator", func(p sim.Proc) {
			p.Sleep(200 * time.Millisecond)
			rs.Failover(p)
		})
		env.Run(3 * time.Second)

		var b []byte
		for _, id := range rs.NodeIDs() {
			n := rs.Node(id)
			n.mu.RLock()
			b = fmt.Appendf(b, "n%d last=%v log=", id, n.lastApplied)
			for _, e := range n.log.ScanAfter(nil, oplog.Zero, 0) {
				b = fmt.Appendf(b, "%v/%v,", e.TS, e.Kind)
			}
			if c, ok := n.store.Lookup("kv"); ok {
				ids := []string{}
				c.ScanIDs(func(docID string) bool { ids = append(ids, docID); return true })
				for _, docID := range ids {
					d, _ := c.FindByID(docID)
					b = fmt.Appendf(b, " %s=%v", docID, d)
				}
			}
			b = append(b, '\n')
			n.mu.RUnlock()
		}
		return string(b)
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("virtual write path not deterministic:\nrun1:\n%s\nrun2:\n%s", first, second)
	}
}

// TestDownSecondaryDoesNotPinOplog: a down member's stale fetch
// position must not hold primary truncation hostage. The primary keeps
// truncating against live fetchers (and the hard cap), the revived
// member finds a gap and resyncs from a snapshot, then converges.
func TestDownSecondaryDoesNotPinOplog(t *testing.T) {
	env := sim.NewEnv(55)
	defer env.Shutdown()
	cfg := fastConfig()
	cfg.ReplIdlePoll = 5 * time.Millisecond
	cfg.OplogCap = 64
	cfg.OplogHardCap = 128
	rs := New(env, cfg)
	downID := rs.SecondaryIDs()[1]
	rs.SetDown(downID, true)

	env.Spawn("writer", func(p sim.Proc) {
		for i := 0; i < 600; i++ {
			rs.ExecWrite(p, func(tx WriteTxn) (any, error) {
				return nil, tx.Set("kv", fmt.Sprintf("k%d", i), storage.D{"v": int64(i)})
			})
			p.Sleep(2 * time.Millisecond)
		}
	})
	env.Run(2 * time.Second)

	prim := rs.Primary()
	prim.mu.RLock()
	primLen := prim.log.Len()
	truncTo := prim.log.TruncatedTo()
	prim.mu.RUnlock()
	if primLen > 200 {
		t.Fatalf("primary oplog holds %d entries with a down member; truncation pinned", primLen)
	}
	if truncTo.IsZero() {
		t.Fatal("primary never truncated despite 600 writes over a 64-entry cap")
	}

	// Revive: the stale member's fetch lands in the truncated gap, so
	// it must snapshot-resync and then stream the tail normally.
	// (Run horizons are absolute virtual times, not deltas.)
	rs.SetDown(downID, false)
	env.Run(5 * time.Second)
	down := rs.Node(downID)
	if got := down.Stats().Resyncs; got < 1 {
		t.Fatalf("revived member resynced %d times; expected a snapshot resync", got)
	}
	name := obs.Name("cluster.resyncs", "node", strconv.Itoa(downID))
	if v := rs.Metrics().Counter(name).Value(); v < 1 {
		t.Fatalf("obs counter %s = %d; not wired", name, v)
	}
	if down.LastApplied().Before(prim.MajorityCommitPoint()) {
		t.Fatalf("revived member at %v still behind commit point %v", down.LastApplied(), prim.MajorityCommitPoint())
	}
	// Spot-check the resynced data actually arrived.
	var ok bool
	env.Spawn("check", func(p sim.Proc) {
		res, err := rs.ExecRead(p, downID, func(v ReadView) (any, error) {
			_, found := v.FindByID("kv", "k599")
			return found, nil
		})
		ok = err == nil && res.(bool)
	})
	env.Run(6 * time.Second)
	if !ok {
		t.Fatal("revived member missing the final write after resync")
	}
}

// TestApplyErrorsAreCounted: a corrupt oplog payload must not be
// silently swallowed by the puller — it is dropped, counted in
// NodeStats.ApplyErrors and the obs registry, and replication of the
// entries around it continues.
func TestApplyErrorsAreCounted(t *testing.T) {
	env := sim.NewEnv(66)
	defer env.Shutdown()
	cfg := fastConfig()
	cfg.ReplIdlePoll = 5 * time.Millisecond
	rs := New(env, cfg)
	prim := rs.Primary()

	// Plant an entry whose payload does not decode, as a torn write
	// would leave it, then follow with good writes.
	prim.mu.Lock()
	ts := prim.log.NextTS(0)
	err := prim.log.Append(&oplog.Entry{
		TS: ts, Kind: oplog.KindSet, Collection: "kv", DocID: "torn",
		Payload: []byte{0x01}, // one field promised, zero bytes follow
	})
	prim.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	env.Spawn("writer", func(p sim.Proc) {
		for i := 0; i < 10; i++ {
			rs.ExecWrite(p, func(tx WriteTxn) (any, error) {
				return nil, tx.Set("kv", fmt.Sprintf("good%d", i), storage.D{"v": int64(i)})
			})
			p.Sleep(10 * time.Millisecond)
		}
	})
	env.Run(2 * time.Second)

	for _, id := range rs.SecondaryIDs() {
		n := rs.Node(id)
		if got := n.Stats().ApplyErrors; got < 1 {
			t.Fatalf("node %d counted %d apply errors; corrupt entry swallowed", id, got)
		}
		name := obs.Name("cluster.apply_errors", "node", strconv.Itoa(id))
		if v := rs.Metrics().Counter(name).Value(); v < 1 {
			t.Fatalf("obs counter %s = %d; not wired", name, v)
		}
		// Entries after the corrupt one still replicated.
		if n.LastApplied().Before(prim.LastApplied()) {
			t.Fatalf("node %d stalled at %v after the corrupt entry (primary at %v)",
				id, n.LastApplied(), prim.LastApplied())
		}
	}
}

// TestNoopLoopFollowsPrimary: the noop writer must skip a down or
// demoted member and mint noops at whichever node currently holds the
// primary role.
func TestNoopLoopFollowsPrimary(t *testing.T) {
	env := sim.NewEnv(88)
	defer env.Shutdown()
	cfg := fastConfig()
	cfg.ReplIdlePoll = 5 * time.Millisecond
	cfg.NoopInterval = 20 * time.Millisecond
	rs := New(env, cfg)

	firstID := rs.PrimaryID()
	env.Run(300 * time.Millisecond)
	if rs.Node(firstID).LastApplied().IsZero() {
		t.Fatal("noop writer never advanced the original primary")
	}

	// Run horizons are absolute virtual times, not deltas.
	env.Spawn("operator", func(p sim.Proc) { rs.Failover(p) })
	env.Run(400 * time.Millisecond)
	newID := rs.PrimaryID()
	if newID == firstID {
		t.Fatal("failover did not move the primary")
	}
	mark := rs.Node(newID).LastApplied()
	env.Run(700 * time.Millisecond)
	if !mark.Before(rs.Node(newID).LastApplied()) {
		t.Fatal("noop writer did not follow the failover to the new primary")
	}

	// A down primary takes no noops (and the loop must not crash): its
	// oplog freezes while the outage lasts.
	rs.SetDown(newID, true)
	n := rs.Node(newID)
	n.mu.RLock()
	frozen := n.log.Last()
	n.mu.RUnlock()
	env.Run(1200 * time.Millisecond)
	n.mu.RLock()
	after := n.log.Last()
	n.mu.RUnlock()
	if after != frozen {
		t.Fatalf("down primary's oplog advanced %v -> %v; noop writer ignored Down()", frozen, after)
	}
}
