package cluster

// Benchmarks for the replicated write path on the real-time
// environment: how many writes per second the cluster sustains when the
// acknowledgement requires a majority of members to have applied the
// commit point, and how quickly a single client's w:majority write is
// acknowledged. Simulated service times and network RTTs are forced
// negative (a no-op Sleep) so the benchmarks isolate the engine's own
// commit, replication and wakeup machinery — oplog append, getMore
// servicing, batch apply, progress gossip and write-concern waiting.
//
// Run with:
//
//	go test ./internal/cluster -run '^$' -bench 'BenchmarkReplicatedWrites|BenchmarkMajorityAck' -benchtime 1s -count 3 -benchmem

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// benchWriteConfig is zeroCostConfig tuned for replication benchmarks:
// background noise (noops, checkpoints) is pushed out of the run, the
// oplog cap is small enough that steady-state truncation is part of
// what the benchmark measures, and the idle poll is tight so the
// pre-change engine is benchmarked at its best, not against a lazy
// 50 ms poll.
func benchWriteConfig(slots int) Config {
	cfg := zeroCostConfig(slots)
	cfg.ReplIdlePoll = time.Millisecond
	cfg.HeartbeatInterval = 5 * time.Millisecond
	cfg.NoopInterval = time.Hour
	cfg.CheckpointInterval = time.Hour
	cfg.OplogCap = 100_000
	return cfg
}

// benchWriteReplicaSet builds a real-time replica set preloaded with
// benchDocs small documents that the write benchmarks update in place.
func benchWriteReplicaSet(b *testing.B, slots int) (*sim.RealtimeEnv, *ReplicaSet) {
	b.Helper()
	env := sim.NewRealtimeEnv(1)
	rs := New(env, benchWriteConfig(slots))
	err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C("bench")
		for i := 0; i < benchDocs; i++ {
			if err := c.Insert(storage.D{
				"_id": benchDocID(i),
				"val": int64(i),
				"pad": "abcdefghijklmnopqrstuvwxyz012345",
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return env, rs
}

// BenchmarkReplicatedWrites hammers the primary with concurrent
// w:majority updates — each operation is a full replication round
// trip: primary commit, oplog fetch by the secondaries, batch apply,
// the progress the next getMore carries, and the write-concern wakeup. Sustained replicated
// writes/s is the headline PR 4 number.
func BenchmarkReplicatedWrites(b *testing.B) {
	env, rs := benchWriteReplicaSet(b, 8)
	defer env.Shutdown()
	var seed atomic.Int64
	b.SetParallelism(benchFanout)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := env.Adhoc("bench-repl-writer")
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			id := benchDocID(rng.Intn(benchDocs))
			v := rng.Int63()
			_, _, err := rs.ExecWriteConcern(p, WMajority, func(tx WriteTxn) (any, error) {
				return nil, tx.Set("bench", id, storage.D{"val": v})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/s")
}

// BenchmarkMajorityAck measures the latency of a single closed-loop
// client's w:majority write: with no concurrent load, acknowledgement
// time is dominated by how the secondaries learn of the new entry
// (idle-poll sleep vs. tail signal) and how the waiter learns of the
// majority (gossip-broadcast rescan vs. per-OpTime wakeup).
func BenchmarkMajorityAck(b *testing.B) {
	env, rs := benchWriteReplicaSet(b, 8)
	defer env.Shutdown()
	p := env.Adhoc("bench-ack-writer")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := benchDocID(i % benchDocs)
		v := int64(i)
		_, _, err := rs.ExecWriteConcern(p, WMajority, func(tx WriteTxn) (any, error) {
			return nil, tx.Set("bench", id, storage.D{"val": v})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "acks/s")
}
