package cluster

import (
	"testing"
	"time"

	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

func TestWriteConcernMajorityWaitsForReplication(t *testing.T) {
	env := sim.NewEnv(31)
	defer env.Shutdown()
	cfg := fastConfig()
	cfg.ReplIdlePoll = 400 * time.Millisecond // visible replication delay
	cfg.DisableTailWake = true                // poll-driven delay is the point here
	rs := New(env, cfg)

	var w1Lat, majLat time.Duration
	var commitOK bool
	env.Spawn("client", func(p sim.Proc) {
		start := p.Now()
		_, _, err := rs.ExecWriteConcern(p, W1, func(tx WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "w1", "v": 1})
		})
		if err != nil {
			t.Error(err)
			return
		}
		w1Lat = p.Now() - start

		start = p.Now()
		_, commit, err := rs.ExecWriteConcern(p, WMajority, func(tx WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "maj", "v": 1})
		})
		if err != nil {
			t.Error(err)
			return
		}
		majLat = p.Now() - start
		// At acknowledgment a majority must actually have the write.
		prim := rs.Primary()
		prim.mu.RLock()
		commitOK = prim.countKnownAtLeastLocked(commit) >= 2
		prim.mu.RUnlock()
	})
	env.Run(10 * time.Second)
	if !commitOK {
		t.Fatal("majority ack without majority replication")
	}
	if majLat < w1Lat+100*time.Millisecond {
		t.Fatalf("majority write (%v) not visibly slower than w:1 (%v) under 400ms poll", majLat, w1Lat)
	}
}

func TestWriteConcernW1DoesNotWait(t *testing.T) {
	env := sim.NewEnv(32)
	defer env.Shutdown()
	cfg := fastConfig()
	cfg.ReplIdlePoll = 10 * time.Second // replication effectively frozen
	rs := New(env, cfg)
	var lat time.Duration
	env.Spawn("client", func(p sim.Proc) {
		start := p.Now()
		rs.ExecWriteConcern(p, W1, func(tx WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "x", "v": 1})
		})
		lat = p.Now() - start
	})
	env.Run(time.Second)
	if lat > 100*time.Millisecond {
		t.Fatalf("w:1 write took %v with frozen replication", lat)
	}
}

func TestMajorityCommitPoint(t *testing.T) {
	env := sim.NewEnv(33)
	defer env.Shutdown()
	rs := New(env, fastConfig())
	env.Spawn("writer", func(p sim.Proc) {
		for i := 0; i < 20; i++ {
			rs.ExecWrite(p, func(tx WriteTxn) (any, error) {
				return nil, tx.Set("kv", "k", storage.D{"v": i})
			})
			p.Sleep(50 * time.Millisecond)
		}
	})
	env.Run(5 * time.Second)
	prim := rs.Primary()
	mcp := prim.MajorityCommitPoint()
	if mcp.IsZero() {
		t.Fatal("majority commit point never advanced")
	}
	if prim.LastApplied().Before(mcp) {
		t.Fatal("commit point ahead of the primary's own applied time")
	}
	// With healthy replication the commit point trails by at most a
	// couple of seconds.
	if lag := prim.LastApplied().LagSeconds(mcp); lag > 2 {
		t.Fatalf("commit point lags %ds on a healthy cluster", lag)
	}
}

func TestWriteConcernString(t *testing.T) {
	if W1.String() != "1" || WMajority.String() != "majority" {
		t.Fatal("WriteConcern strings wrong")
	}
}
