package cluster

// Lease-served linearizable reads scale with the member count, because
// every leased member serves strong reads locally instead of funneling
// them all through the primary. Both arms run the identical read
// against the identical five-member set — same simulated service time
// (ReadCost), same CPU slots per node — so the throughput ratio
// between them is pure placement: five lease holders versus the one
// primary. TestLinearizableLeaseScaling requires the spread arm to
// clear 3x the primary-only one in virtual time; the benchmarks
// measure the same pair on the wall clock.
//
// Service time is simulated (a Sleep while the CPU slot is held), so
// the scaling is visible even on a single-core runner: throughput is
// bounded by members x CPUSlots / ReadCost, not by host parallelism.
//
// Run the benchmarks with:
//
//	go test ./internal/cluster -bench BenchmarkLinearizable -benchtime 2s -count 3 -benchmem

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

const (
	leaseBenchNodes  = 5
	leaseBenchDocs   = 1024
	leaseBenchFanout = 64 // parallel clients per GOMAXPROCS
)

// newLeaseBenchSet builds a five-member set with leases on and a
// modeled per-read service time, preloaded with small documents.
func newLeaseBenchSet(tb testing.TB, env sim.Env) *ReplicaSet {
	tb.Helper()
	cfg := zeroCostConfig(4)
	cfg.Nodes = leaseBenchNodes
	cfg.ReadCost = 2 * time.Millisecond
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.LinearizableLeases = true
	rs := New(env, cfg)
	err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C("bench")
		for i := 0; i < leaseBenchDocs; i++ {
			if err := c.Insert(storage.D{"_id": benchDocID(i), "val": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rs
}

// allLeased reports whether every member holds its lease.
func allLeased(rs *ReplicaSet) bool {
	for id := 0; id < leaseBenchNodes; id++ {
		if !rs.Leased(id) {
			return false
		}
	}
	return true
}

// leaseBenchSet is newLeaseBenchSet on the wall clock, returned once
// the heartbeat path has granted every member its lease.
func leaseBenchSet(b *testing.B) (*sim.RealtimeEnv, *ReplicaSet) {
	b.Helper()
	env := sim.NewRealtimeEnv(9)
	rs := newLeaseBenchSet(b, env)
	deadline := time.Now().Add(5 * time.Second)
	for !allLeased(rs) {
		if time.Now().After(deadline) {
			b.Fatal("not every member leased after 5 s")
		}
		time.Sleep(time.Millisecond)
	}
	return env, rs
}

// linearizableRead reads one document linearizably at node. A lease
// rejection falls back to the primary exactly as the driver does, so
// rare renewal races do not abort a run; mass fallback shows up in the
// throughput ratio anyway.
func linearizableRead(p sim.Proc, rs *ReplicaSet, node int, id string) error {
	body := func(v ReadView) (any, error) {
		if _, ok := v.FindByID("bench", id); !ok {
			return nil, errors.New("bench: missing doc")
		}
		return nil, nil
	}
	_, _, err := rs.ExecReadLinearizableMeta(p, node, oplog.Zero, ReadMeta{}, body)
	if _, rejected := LeaseReject(err); rejected {
		_, _, err = rs.ExecReadLinearizableMeta(p, rs.PrimaryID(), oplog.Zero, ReadMeta{}, body)
	}
	return err
}

// benchLinearizable drives closed-loop linearizable point reads. With
// spread on, clients round-robin across all five members (the lease
// path); off, every read is pinned to the primary (the baseline every
// strong read took before leases).
func benchLinearizable(b *testing.B, spread bool) {
	env, rs := leaseBenchSet(b)
	defer env.Shutdown()
	primary := rs.PrimaryID()
	var seed atomic.Int64
	b.SetParallelism(leaseBenchFanout)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := env.Adhoc("bench-lin-reader")
		rng := rand.New(rand.NewSource(seed.Add(1)))
		node := primary
		next := rng.Intn(leaseBenchNodes)
		for pb.Next() {
			if spread {
				node = next % leaseBenchNodes
				next++
			}
			if err := linearizableRead(p, rs, node, benchDocID(rng.Intn(leaseBenchDocs))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rt/s")
}

// BenchmarkLinearizable5Node spreads linearizable reads across all
// five leased members — the strong-read scaling number on the wall
// clock.
func BenchmarkLinearizable5Node(b *testing.B) { benchLinearizable(b, true) }

// BenchmarkLinearizablePrimaryOnly pins every linearizable read to the
// primary — the pre-lease baseline.
func BenchmarkLinearizablePrimaryOnly(b *testing.B) { benchLinearizable(b, false) }

// TestLinearizableLeaseScaling: in virtual time, where the modeled
// read cost is the only cost, closed-loop linearizable reads spread
// across five leased members complete at least 3x as many reads per
// virtual second as reads pinned to the primary.
func TestLinearizableLeaseScaling(t *testing.T) {
	const warmup, window = 100 * time.Millisecond, time.Second
	reads := func(spread bool) int {
		env := sim.NewEnv(9)
		defer env.Shutdown()
		rs := newLeaseBenchSet(t, env)
		env.Run(warmup) // heartbeats grant the leases
		if !allLeased(rs) {
			t.Fatalf("not every member leased after %v", warmup)
		}
		primary := rs.PrimaryID()
		n := 0
		for i := 0; i < leaseBenchFanout; i++ {
			rng := env.NewRand(fmt.Sprintf("lin-reader%d", i))
			env.Spawn("lin-reader", func(p sim.Proc) {
				node, next := primary, rng.Intn(leaseBenchNodes)
				for p.Now() < warmup+window {
					if spread {
						node = next % leaseBenchNodes
						next++
					}
					if err := linearizableRead(p, rs, node, benchDocID(rng.Intn(leaseBenchDocs))); err != nil {
						t.Error(err)
						return
					}
					n++
				}
			})
		}
		env.Run(warmup + window)
		return n
	}
	spread, primary := reads(true), reads(false)
	ratio := float64(spread) / float64(primary)
	t.Logf("linearizable reads in 1s: 5 members %d, primary only %d (%.2fx)", spread, primary, ratio)
	if ratio < 3.0 {
		t.Errorf("lease-spread reads %.2fx primary-only, want >= 3.0x", ratio)
	}
}
