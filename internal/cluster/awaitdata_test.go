package cluster

import (
	"fmt"
	"testing"
	"time"

	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// exactConfig is a replica set whose replication timing has a closed
// form: every member and the client in one zone with round trip rtt
// and no jitter, fixed getMore and apply costs, and no heartbeat,
// checkpoint or noop after t=0 — nothing but the measured write and
// its replication touches the primary after start-up.
func exactConfig(rtt, getMore, apply time.Duration) Config {
	cfg := DefaultConfig()
	cfg.Zones = []string{"z"}
	cfg.ClientZone = "z"
	cfg.RTTSameZone = rtt
	cfg.RTTJitter = -1
	cfg.CostJitter = -1
	cfg.GetMoreCost = getMore
	cfg.ApplyCost = apply
	cfg.HeartbeatInterval = time.Hour
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	cfg.FlowControlLagSecs = 0
	return cfg
}

// commitAt writes one document at the primary itself, with no client
// traversal, and returns its OpTime and the virtual time it committed.
func commitAt(t *testing.T, p sim.Proc, rs *ReplicaSet, id string) (oplog.OpTime, time.Duration) {
	t.Helper()
	_, ts, err := rs.Primary().execWrite(p, func(tx WriteTxn) (any, error) {
		return nil, tx.Insert("kv", storage.D{"_id": id, "v": 1})
	})
	if err != nil {
		t.Errorf("write %s: %v", id, err)
	}
	return ts, p.Now()
}

// visibleAt waits on member n's apply gate until it has applied ts and
// returns the virtual time it did.
func visibleAt(p sim.Proc, n *Node, ts oplog.OpTime) time.Duration {
	for n.LastApplied().Before(ts) {
		n.applyGate.Wait(p)
	}
	return p.Now()
}

// knownAt polls, every step, until the primary knows member id has
// applied ts, and returns the first polled time it did.
func knownAt(p sim.Proc, prim *Node, id int, ts oplog.OpTime, step time.Duration) time.Duration {
	for {
		prim.mu.RLock()
		ok := !prim.known[id].Before(ts)
		prim.mu.RUnlock()
		if ok {
			return p.Now()
		}
		p.Sleep(step)
	}
}

// TestReplicationDelayClosedForm checks the tail-woken pull against its
// closed form. With one-way delay R/2, getMore cost G, apply cost A
// and writes sparse enough that each finds both secondaries' getMores
// parked at the primary, a write committed at t_c
//
//   - wakes the awaitData getMores at t_c (the oplog append broadcasts
//     the tail gate; no CPU slot is busy, so G is pure service time);
//   - is scanned and sent at t_c + G, arrives at t_c + G + R/2, and is
//     applied and visible at t_c + R/2 + G + A;
//   - is known to the primary when the next getMore, sent at once and
//     carrying the new lastApplied, arrives: t_c + R + G + A, R/2 after
//     it became visible.
//
// A puller that parks on the tail itself, after an empty getMore, must
// send a getMore once woken and pays R + G + A to visibility.
func TestReplicationDelayClosedForm(t *testing.T) {
	const (
		rtt     = 2 * time.Millisecond
		getMore = 300 * time.Microsecond
		apply   = 170 * time.Microsecond
		step    = time.Microsecond
	)
	env := sim.NewEnv(41)
	defer env.Shutdown()
	rs := New(env, exactConfig(rtt, getMore, apply))
	secs := rs.SecondaryIDs()
	prim := rs.Primary()
	wantVisible := rtt/2 + getMore + apply
	wantKnown := rtt + getMore + apply
	const writes = 5
	done := false
	env.Spawn("writer", func(p sim.Proc) {
		for i := 0; i < writes; i++ {
			p.Sleep(time.Second) // sparse: replication of the last write is long over
			ts, tc := commitAt(t, p, rs, fmt.Sprintf("k%d", i))
			for _, id := range secs {
				id := id
				env.Spawn("visible", func(q sim.Proc) {
					if got := visibleAt(q, rs.Node(id), ts) - tc; got != wantVisible {
						t.Errorf("write %d visible on member %d after %v, want R/2+G+A = %v", i, id, got, wantVisible)
					}
				})
				env.Spawn("known", func(q sim.Proc) {
					if got := knownAt(q, prim, id, ts, step) - tc; got < wantKnown || got >= wantKnown+step {
						t.Errorf("primary knew write %d on member %d after %v, want R+G+A = %v", i, id, got, wantKnown)
					}
				})
			}
		}
		done = true
	})
	env.Run(time.Duration(writes+1) * time.Second)
	if !done {
		t.Fatal("writer did not finish")
	}
}

// TestGetMoreAccountingAwaitData: with sparse writes every getMore a
// secondary sends either carries the next write or waits out a whole
// ReplIdlePoll at the primary. No getMore after an applied batch comes
// back empty.
func TestGetMoreAccountingAwaitData(t *testing.T) {
	const (
		writes = 10
		poll   = time.Second
		gap    = 100 * time.Millisecond // < poll: no getMore times out mid-load
		idle   = 3500 * time.Millisecond
	)
	cfg := exactConfig(time.Millisecond, 300*time.Microsecond, 200*time.Microsecond)
	cfg.ReplIdlePoll = poll
	env := sim.NewEnv(42)
	defer env.Shutdown()
	rs := New(env, cfg)
	env.Spawn("writer", func(p sim.Proc) {
		for i := 0; i < writes; i++ {
			p.Sleep(gap)
			commitAt(t, p, rs, fmt.Sprintf("k%d", i))
		}
	})
	// The last getMore to carry a write parks just after it; in the idle
	// tail it times out once per whole poll interval.
	env.Run(writes*gap + idle)
	secs := rs.SecondaryIDs()
	timeouts := int64(idle / poll)
	st := rs.Primary().Stats()
	if want := int64(len(secs) * writes); st.FetchedEntries != want {
		t.Errorf("primary handed out %d entries, want %d", st.FetchedEntries, want)
	}
	if want := int64(len(secs)) * (writes + timeouts); st.GetMores != want {
		t.Errorf("primary served %d getMores, want %d: %d carrying one write and %d awaitData timeouts per secondary",
			st.GetMores, want, writes, timeouts)
	}
	for _, id := range secs {
		if got := rs.Node(id).Stats().Applied; got != writes {
			t.Errorf("member %d applied %d entries, want %d", id, got, writes)
		}
	}
}

// TestFailoverWakesParkedGetMores: a getMore parked at the primary when
// it is deposed returns at once, so its puller re-targets the new
// primary and applies the first post-failover write within a few round
// trips rather than after ReplIdlePoll.
func TestFailoverWakesParkedGetMores(t *testing.T) {
	cfg := fastConfig()
	cfg.ReplIdlePoll = 10 * time.Second
	env := sim.NewEnv(43)
	defer env.Shutdown()
	rs := New(env, cfg)
	var lag time.Duration
	bystander := -1
	env.Spawn("operator", func(p sim.Proc) {
		ts, _ := commitAt(t, p, rs, "before")
		for _, id := range rs.SecondaryIDs() {
			visibleAt(p, rs.Node(id), ts)
		}
		p.Sleep(time.Second) // both getMores park on the caught-up tail
		old := rs.PrimaryID()
		winner := rs.Failover(p)
		for _, id := range rs.NodeIDs() {
			if id != old && id != winner {
				bystander = id
			}
		}
		if bystander < 0 {
			t.Error("no secondary besides the new primary")
			return
		}
		ts, tc := commitAt(t, p, rs, "after")
		lag = visibleAt(p, rs.Node(bystander), ts) - tc
	})
	env.Run(15 * time.Second)
	if bystander < 0 {
		t.Fatal("failover scenario did not run")
	}
	if lag == 0 || lag > 100*time.Millisecond {
		t.Fatalf("member %d applied the first post-failover write %v after commit, want within 100ms", bystander, lag)
	}
}

// TestGetMoreScanAllocatesNothing: the primary side of a steady-state
// getMore — the scan and the versions built beside it — fills the
// batch and versions slices the puller hands back, allocating nothing,
// and still finds the versions the batch's sets produced.
func TestGetMoreScanAllocatesNothing(t *testing.T) {
	env := sim.NewEnv(21)
	defer env.Shutdown()
	cfg := fastConfig()
	rs := New(env, cfg)
	env.Spawn("writer", func(p sim.Proc) {
		for i := 0; i < 2*batchMax; i++ {
			if _, err := rs.ExecWrite(p, func(tx WriteTxn) (any, error) {
				return nil, tx.Set("kv", fmt.Sprintf("d%d", i%50), storage.D{"v": int64(i)})
			}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.Run(10 * time.Second)
	prim := rs.Primary()
	prim.mu.RLock()
	defer prim.mu.RUnlock()
	// A member one batch behind the tail, as a lagging puller is.
	after := prim.log.ScanAfter(nil, oplog.Zero, 0)[batchMax-1].TS
	var batch []*oplog.Entry
	var versions []*storage.EncodedDoc
	scan := func() {
		batch = prim.log.ScanAfter(batch[:0], after, batchMax)
		versions = prim.versionsLocked(versions, batch)
	}
	scan()
	if allocs := testing.AllocsPerRun(100, scan); allocs != 0 {
		t.Fatalf("%.0f allocations per getMore scan, want 0", allocs)
	}
	found := 0
	for i, v := range versions {
		if v != nil {
			found++
			if v.Stamp() != storage.Stamp(batch[i].TS) {
				t.Fatalf("version %d is stamped %v, its entry %v", i, v.Stamp(), batch[i].TS)
			}
		}
	}
	if len(batch) != batchMax || found != 50 {
		t.Fatalf("scanned %d entries and found %d versions, want %d and 50", len(batch), found, batchMax)
	}
}
