package cluster

// Tests for the lease subsystem of PR 9: leader leases, per-secondary
// read leases, clock-skew guard bands, the failover drain, and the
// stale-read audit. The deterministic tests pin each rejection reason
// and state transition; the realtime stress test at the bottom runs
// the whole protocol — concurrent linearizable readers, w:majority
// writers, injected clock skew, a flapping secondary and mid-run
// failovers — under the race detector and asserts the audit saw zero
// stale linearizable reads across every lease transfer.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decongestant/internal/obs"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

func leaseConfig() Config {
	cfg := fastConfig()
	cfg.LinearizableLeases = true
	// Pin the derived knobs so the tests can reason about them without
	// re-deriving the withDefaults arithmetic.
	cfg.LeaseDuration = 4 * cfg.HeartbeatInterval
	cfg.LeaseGuardBand = cfg.LeaseDuration / 8
	return cfg
}

// TestLinearizableLeaseServesLocally: once heartbeats have granted
// leases, every member serves linearizable reads locally — secondaries
// from their read lease, the primary under its leader lease — without
// a majority round, and the audit records no violation.
func TestLinearizableLeaseServesLocally(t *testing.T) {
	env := sim.NewEnv(51)
	defer env.Shutdown()
	cfg := leaseConfig()
	rs := New(env, cfg)

	var vals []int64
	env.Spawn("client", func(p sim.Proc) {
		if _, _, err := rs.ExecWriteConcern(p, WMajority, func(tx WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "lin", "v": int64(7)})
		}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(3 * cfg.HeartbeatInterval) // let grants ride a few heartbeats
		for id := 0; id < cfg.Nodes; id++ {
			res, _, err := rs.ExecReadLinearizableMeta(p, id, oplog.Zero, ReadMeta{}, func(v ReadView) (any, error) {
				d, ok := v.FindByID("kv", "lin")
				if !ok {
					return nil, fmt.Errorf("node %d: doc missing", id)
				}
				return d.Int("v"), nil
			})
			if err != nil {
				t.Errorf("node %d: %v", id, err)
				return
			}
			vals = append(vals, res.(int64))
		}
	})
	env.Run(30 * time.Second)

	if len(vals) != cfg.Nodes {
		t.Fatalf("served %d linearizable reads, want %d", len(vals), cfg.Nodes)
	}
	for i, v := range vals {
		if v != 7 {
			t.Fatalf("read %d saw v=%d, want 7", i, v)
		}
	}
	if ep := rs.LeaseEpoch(); ep != 1 {
		t.Fatalf("lease epoch %d, want 1", ep)
	}
	for id := 0; id < cfg.Nodes; id++ {
		if !rs.Leased(id) {
			t.Fatalf("node %d not leased after heartbeats", id)
		}
	}
	snap := rs.Metrics().Snapshot()
	if got := snap.CounterValue(obs.Name("lease.local_strong_reads", "role", "secondary")); got != uint64(cfg.Nodes-1) {
		t.Fatalf("secondary-local strong reads = %d, want %d", got, cfg.Nodes-1)
	}
	if got := snap.CounterValue(obs.Name("lease.local_strong_reads", "role", "primary")); got != 1 {
		t.Fatalf("primary-local strong reads = %d, want 1", got)
	}
	if got := snap.CounterValue("lease.audit_violations"); got != 0 {
		t.Fatalf("audit violations = %d, want 0", got)
	}
	if got := snap.CounterValue("lease.renewals"); got == 0 {
		t.Fatal("no lease renewals counted")
	}
}

// TestLinearizableDisabledRejectsSecondaries: with leases off a
// secondary rejects with the typed no-lease error (which LeaseReject
// classifies, including through a wire-style string flattening), and
// the primary still serves via the majority-confirm baseline.
func TestLinearizableDisabledRejectsSecondaries(t *testing.T) {
	env := sim.NewEnv(52)
	defer env.Shutdown()
	rs := New(env, fastConfig())

	var secErr error
	var primOK bool
	env.Spawn("client", func(p sim.Proc) {
		rs.ExecWrite(p, func(tx WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "x", "v": 1})
		})
		_, _, secErr = rs.ExecReadLinearizableMeta(p, rs.SecondaryIDs()[0], oplog.Zero, ReadMeta{}, func(v ReadView) (any, error) {
			return nil, nil
		})
		_, _, err := rs.ExecReadLinearizableMeta(p, rs.PrimaryID(), oplog.Zero, ReadMeta{}, func(v ReadView) (any, error) {
			_, ok := v.FindByID("kv", "x")
			return ok, nil
		})
		primOK = err == nil
	})
	env.Run(10 * time.Second)

	var le *LeaseError
	if !errors.As(secErr, &le) || le.Reason != LeaseReasonNoLease {
		t.Fatalf("secondary error %v, want typed no-lease rejection", secErr)
	}
	if reason, ok := LeaseReject(secErr); !ok || reason != LeaseReasonNoLease {
		t.Fatalf("LeaseReject(typed) = %q,%v", reason, ok)
	}
	// Wire responses flatten errors to strings; attribution must survive.
	flat := errors.New("server: " + secErr.Error())
	if reason, ok := LeaseReject(flat); !ok || reason != LeaseReasonNoLease {
		t.Fatalf("LeaseReject(flattened) = %q,%v", reason, ok)
	}
	if !primOK {
		t.Fatal("primary majority-confirm read failed with leases off")
	}
	if ep := rs.LeaseEpoch(); ep != 0 {
		t.Fatalf("lease epoch %d with leases off, want 0", ep)
	}
}

// TestLeaseExpiresWhenPrimaryPartitioned: when the primary stops
// heartbeating, read leases stop renewing and expire after the lease
// window — and the deposed leader's own lease decays by pure time, so
// neither side can serve linearizable reads into a partition.
func TestLeaseExpiresWhenPrimaryPartitioned(t *testing.T) {
	env := sim.NewEnv(53)
	defer env.Shutdown()
	cfg := leaseConfig()
	rs := New(env, cfg)
	primary := rs.PrimaryID()
	sec := rs.SecondaryIDs()[0]

	var before, after error
	env.Spawn("client", func(p sim.Proc) {
		p.Sleep(3 * cfg.HeartbeatInterval)
		_, _, before = rs.ExecReadLinearizableMeta(p, sec, oplog.Zero, ReadMeta{}, func(v ReadView) (any, error) { return nil, nil })
		rs.SetDown(primary, true)
		p.Sleep(cfg.LeaseDuration + cfg.HeartbeatInterval)
		_, _, after = rs.ExecReadLinearizableMeta(p, sec, oplog.Zero, ReadMeta{}, func(v ReadView) (any, error) { return nil, nil })
	})
	env.Run(30 * time.Second)

	if before != nil {
		t.Fatalf("pre-partition lease read failed: %v", before)
	}
	if reason, ok := LeaseReject(after); !ok || reason != LeaseReasonExpired {
		t.Fatalf("post-partition read error %v, want lease-expired rejection", after)
	}
	if rs.Leased(primary) {
		t.Fatal("partitioned primary still holds its leader lease after the window")
	}
	snap := rs.Metrics().Snapshot()
	if got := snap.CounterValue(obs.Name("lease.fallbacks", "reason", LeaseReasonExpired)); got == 0 {
		t.Fatal("lease-expired fallback not counted")
	}
}

// TestLeaseCommitPointGate: a secondary whose lastApplied has not
// reached its lease's commit point must reject — serving would allow a
// linearizable read older than a majority-acknowledged write.
func TestLeaseCommitPointGate(t *testing.T) {
	env := sim.NewEnv(54)
	defer env.Shutdown()
	cfg := leaseConfig()
	rs := New(env, cfg)
	sec := rs.SecondaryIDs()[0]

	var err error
	env.Spawn("client", func(p sim.Proc) {
		p.Sleep(3 * cfg.HeartbeatInterval)
		// Re-grant the secondary's lease with a commit point far ahead of
		// anything it has applied.
		rs.leases.grant(rs.PrimaryID(), sec, p.Now(), oplog.OpTime{Secs: 1 << 30, Inc: 1})
		_, _, err = rs.ExecReadLinearizableMeta(p, sec, oplog.Zero, ReadMeta{}, func(v ReadView) (any, error) { return nil, nil })
	})
	env.Run(10 * time.Second)

	if reason, ok := LeaseReject(err); !ok || reason != LeaseReasonCommitBehind {
		t.Fatalf("read error %v, want commit-point-behind rejection", err)
	}
	snap := rs.Metrics().Snapshot()
	if got := snap.CounterValue(obs.Name("lease.fallbacks", "reason", LeaseReasonCommitBehind)); got != 1 {
		t.Fatalf("commit-point-behind fallbacks = %d, want 1", got)
	}
}

// TestLeaseClockSkewGuardBand: a clock jump on the holder beyond the
// guard band invalidates its lease until the next renewal re-stamps it
// on the new clock; a jump the guard band absorbs does not. Renewals
// are stopped (primary downed) before the jump so the rejection is
// attributable to skew, not to a re-grant racing the assertion.
func TestLeaseClockSkewGuardBand(t *testing.T) {
	env := sim.NewEnv(55)
	defer env.Shutdown()
	cfg := leaseConfig()
	rs := New(env, cfg)
	sec := rs.SecondaryIDs()[0]

	var small, large error
	env.Spawn("client", func(p sim.Proc) {
		p.Sleep(3 * cfg.HeartbeatInterval)
		rs.SetDown(rs.PrimaryID(), true) // freeze renewals
		rs.SetClockSkew(sec, cfg.LeaseGuardBand/2)
		_, _, small = rs.ExecReadLinearizableMeta(p, sec, oplog.Zero, ReadMeta{}, func(v ReadView) (any, error) { return nil, nil })
		rs.SetClockSkew(sec, cfg.LeaseDuration)
		_, _, large = rs.ExecReadLinearizableMeta(p, sec, oplog.Zero, ReadMeta{}, func(v ReadView) (any, error) { return nil, nil })
	})
	env.Run(10 * time.Second)

	if small != nil {
		t.Fatalf("skew within the guard band rejected the lease: %v", small)
	}
	if reason, ok := LeaseReject(large); !ok || reason != LeaseReasonExpired {
		t.Fatalf("skew beyond the lease window returned %v, want lease-expired", large)
	}
}

// TestFailoverDrainsAndReissuesLeases: a failover bumps the lease
// epoch, waits out every old-regime lease before installing the new
// primary, and the new regime re-grants leases under the new epoch —
// with zero audit violations across the transfer.
func TestFailoverDrainsAndReissuesLeases(t *testing.T) {
	env := sim.NewEnv(56)
	defer env.Shutdown()
	cfg := leaseConfig()
	rs := New(env, cfg)
	oldPrimary := rs.PrimaryID()

	env.Spawn("client", func(p sim.Proc) {
		rs.ExecWrite(p, func(tx WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "f", "v": 1})
		})
		p.Sleep(3 * cfg.HeartbeatInterval)
	})
	env.Run(2 * time.Second)

	var failoverTook time.Duration
	env.Spawn("operator", func(p sim.Proc) {
		start := p.Now()
		rs.Failover(p)
		failoverTook = p.Now() - start
	})
	env.Run(30 * time.Second)

	if rs.PrimaryID() == oldPrimary {
		t.Fatal("failover did not move the primary")
	}
	if ep := rs.LeaseEpoch(); ep != 2 {
		t.Fatalf("lease epoch after failover = %d, want 2", ep)
	}
	// The drain must have cost at least the guard band (outstanding
	// leases plus the skew margin are waited out before promotion).
	if failoverTook < cfg.LeaseGuardBand {
		t.Fatalf("failover took %v, shorter than the guard band %v", failoverTook, cfg.LeaseGuardBand)
	}

	var served error
	env.Spawn("client2", func(p sim.Proc) {
		p.Sleep(3 * cfg.HeartbeatInterval) // new-epoch grants ride new heartbeats
		for id := 0; id < cfg.Nodes; id++ {
			if _, _, err := rs.ExecReadLinearizableMeta(p, id, oplog.Zero, ReadMeta{}, func(v ReadView) (any, error) {
				return nil, nil
			}); err != nil && served == nil {
				served = fmt.Errorf("node %d after failover: %w", id, err)
			}
		}
	})
	env.Run(10 * time.Second)
	if served != nil {
		t.Fatal(served)
	}
	snap := rs.Metrics().Snapshot()
	if got := snap.CounterValue("lease.audit_violations"); got != 0 {
		t.Fatalf("audit violations across failover = %d, want 0", got)
	}
	if got := snap.CounterValue("lease.expiries"); got == 0 {
		t.Fatal("failover retired no leases")
	}
}

// TestWMajorityWaitsForLeaseholders: a w:majority write may not be
// acknowledged while any live read lease could still serve a
// linearizable read missing it — the leaseholder barrier holds the ack
// until renewal, application, or expiry covers every leaseholder.
func TestWMajorityWaitsForLeaseholders(t *testing.T) {
	env := sim.NewEnv(57)
	defer env.Shutdown()
	cfg := leaseConfig()
	rs := New(env, cfg)

	var readAfterAck int64 = -1
	env.Spawn("client", func(p sim.Proc) {
		p.Sleep(3 * cfg.HeartbeatInterval)
		if _, _, err := rs.ExecWriteConcern(p, WMajority, func(tx WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "bar", "v": int64(42)})
		}); err != nil {
			t.Error(err)
			return
		}
		// The ack returned: every leaseholder's linearizable read must now
		// observe the write.
		for _, id := range rs.SecondaryIDs() {
			res, _, err := rs.ExecReadLinearizableMeta(p, id, oplog.Zero, ReadMeta{}, func(v ReadView) (any, error) {
				d, ok := v.FindByID("kv", "bar")
				if !ok {
					return int64(-1), nil
				}
				return d.Int("v"), nil
			})
			if err != nil {
				continue // a rejection falls back to the primary; not stale
			}
			readAfterAck = res.(int64)
			if readAfterAck != 42 {
				return
			}
		}
	})
	env.Run(30 * time.Second)
	if readAfterAck != 42 && readAfterAck != -1 {
		t.Fatalf("leased secondary served %d after w:majority ack, want 42", readAfterAck)
	}
	if readAfterAck == -1 {
		t.Skip("no secondary lease was valid at read time (all fell back); barrier untestable this run")
	}
}

// TestRealtimeLinearizableLeaseAudit is the acceptance scenario: a
// 5-member realtime replica set under the race detector with
// concurrent w:majority writers, linearizable readers on every member,
// injected clock skew (inside the guard band), a flapping secondary
// (injected lag) and mid-run failovers. Every successful linearizable
// read must observe at least the last acknowledged write (real-time
// ordering), and the lease audit must record zero stale reads across
// every lease transfer.
func TestRealtimeLinearizableLeaseAudit(t *testing.T) {
	env := sim.NewRealtimeEnv(58)
	defer env.Shutdown()
	cfg := zeroCostConfig(8)
	cfg.Nodes = 5
	cfg.ReplIdlePoll = time.Millisecond
	cfg.HeartbeatInterval = 5 * time.Millisecond
	cfg.LinearizableLeases = true
	cfg.LeaseDuration = 20 * time.Millisecond
	cfg.LeaseGuardBand = 2 * time.Millisecond
	rs := New(env, cfg)
	if err := rs.Bootstrap(func(s *storage.Store) error {
		return s.C("acct").Insert(storage.D{"_id": "bal", "v": int64(0)})
	}); err != nil {
		t.Fatal(err)
	}

	const iters = 150
	var lastAcked atomic.Int64
	var localReads, fellBack atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Writer: w:majority increments; the acknowledged value is the
	// linearizability floor every subsequent read must observe.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := env.Adhoc("lease/writer")
		for i := 1; i <= iters; i++ {
			want := int64(i)
			_, _, err := rs.ExecWriteConcern(p, WMajority, func(tx WriteTxn) (any, error) {
				return nil, tx.Set("acct", "bal", storage.D{"v": want})
			})
			if err != nil {
				// Failover and flapper races: the write was not
				// acknowledged, so the floor does not advance.
				if errors.Is(err, ErrNotPrimary) || errors.Is(err, ErrNodeDown) {
					continue
				}
				fail(err)
				return
			}
			lastAcked.Store(want)
		}
	}()

	// Readers: linearizable reads on random members, driver-style
	// primary fallback on rejection. The floor is loaded BEFORE the
	// read starts, so real-time ordering demands the read observe it.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			p := env.Adhoc(fmt.Sprintf("lease/reader-%d", idx))
			rng := rand.New(rand.NewSource(int64(idx)))
			body := func(v ReadView) (any, error) {
				d, ok := v.FindByID("acct", "bal")
				if !ok {
					return int64(-1), nil
				}
				return d.Int("v"), nil
			}
			for i := 0; i < iters; i++ {
				floor := lastAcked.Load()
				node := rng.Intn(cfg.Nodes)
				res, _, err := rs.ExecReadLinearizableMeta(p, node, oplog.Zero, ReadMeta{}, body)
				if err != nil {
					if _, lease := LeaseReject(err); !lease && !errors.Is(err, ErrNodeDown) {
						fail(err)
						return
					}
					fellBack.Add(1)
					if res, _, err = rs.ExecReadLinearizableMeta(p, rs.PrimaryID(), oplog.Zero, ReadMeta{}, body); err != nil {
						continue // failover race; next iteration
					}
				} else if node != rs.PrimaryID() {
					localReads.Add(1)
				}
				if got := res.(int64); got < floor {
					fail(fmt.Errorf("stale linearizable read: node %d saw %d, floor %d", node, got, floor))
					return
				}
			}
		}(r)
	}

	// Clock-skew injector: jitter every node's clock inside the guard
	// band — the protocol must absorb it without a single stale read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 40; i++ {
			node := rng.Intn(cfg.Nodes)
			skew := time.Duration(rng.Int63n(int64(cfg.LeaseGuardBand / 2)))
			if rng.Intn(2) == 0 {
				skew = -skew
			}
			rs.SetClockSkew(node, skew)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Lag injector: flap one secondary so its lease lapses and its
	// rejoin exercises the commit-point gate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := env.Adhoc("lease/flapper")
		_ = p
		for i := 0; i < 3; i++ {
			time.Sleep(15 * time.Millisecond)
			ids := rs.SecondaryIDs()
			id := ids[i%len(ids)]
			rs.SetDown(id, true)
			time.Sleep(25 * time.Millisecond)
			rs.SetDown(id, false)
		}
	}()

	// Failovers mid-run: each transfer must drain the old lease regime
	// before the new epoch grants.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := env.Adhoc("lease/failover")
		for i := 0; i < 2; i++ {
			time.Sleep(40 * time.Millisecond)
			rs.Failover(p)
		}
	}()

	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	snap := rs.Metrics().Snapshot()
	if got := snap.CounterValue("lease.audit_violations"); got != 0 {
		t.Fatalf("lease audit violations = %d, want 0 (exemplars: %+v)", got, rs.LeaseExemplars())
	}
	for _, ex := range rs.LeaseExemplars() {
		if ex.Violation {
			t.Fatalf("violating exemplar retained: %+v", ex)
		}
	}
	if localReads.Load() == 0 {
		t.Fatal("no linearizable read was ever served locally by a secondary")
	}
	if ep := rs.LeaseEpoch(); ep != 3 {
		t.Fatalf("lease epoch after two failovers = %d, want 3", ep)
	}
	t.Logf("local secondary reads=%d fallbacks=%d renewals=%d expiries=%d",
		localReads.Load(), fellBack.Load(),
		snap.CounterValue("lease.renewals"), snap.CounterValue("lease.expiries"))
}
