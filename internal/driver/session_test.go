package driver

import (
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

func causalSetup(seed int64, poll time.Duration) (*sim.VirtualEnv, *cluster.ReplicaSet, *Client) {
	env := sim.NewEnv(seed)
	cfg := cluster.DefaultConfig()
	cfg.ReplIdlePoll = poll
	cfg.DisableTailWake = true // these tests drive staleness via the poll interval
	cfg.HeartbeatInterval = 100 * time.Millisecond
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	rs := cluster.New(env, cfg)
	c := NewClient(env, WrapCluster(rs))
	return env, rs, c
}

func TestSessionReadYourWritesOnSecondary(t *testing.T) {
	// Slow replication poll: a plain secondary read right after a
	// write misses it, a causal session read must wait and see it.
	env, rs, c := causalSetup(1, 300*time.Millisecond)
	defer env.Shutdown()
	sess := c.NewSession()
	if !sess.Causal() {
		t.Fatal("session not causal over causal conn")
	}
	secID := rs.SecondaryIDs()[0]
	var plainMiss, sessionHit bool
	var waited time.Duration
	env.Spawn("client", func(p sim.Proc) {
		if _, _, err := sess.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "mine", "v": 1})
		}); err != nil {
			t.Error(err)
			return
		}
		if sess.OperationTime().IsZero() {
			t.Error("session token not advanced by write")
		}
		// Plain read at the secondary: stale.
		res, _ := c.Conn().ExecRead(p, secID, func(v cluster.ReadView) (any, error) {
			_, ok := v.FindByID("kv", "mine")
			return ok, nil
		})
		plainMiss = !res.(bool)
		// Session read at the same secondary: waits for replication.
		start := p.Now()
		res2, _, _, err := sess.Read(p, ReadOptions{Pref: Secondary}, func(v cluster.ReadView) (any, error) {
			_, ok := v.FindByID("kv", "mine")
			return ok, nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		waited = p.Now() - start
		sessionHit = res2.(bool)
	})
	env.Run(5 * time.Second)
	if !plainMiss {
		t.Error("plain secondary read unexpectedly saw the write (staleness window too small)")
	}
	if !sessionHit {
		t.Error("causal session read did not observe the session's own write")
	}
	if waited < 100*time.Millisecond {
		t.Errorf("session read waited only %v; expected it to block for replication", waited)
	}
}

func TestSessionMonotonicTokenAcrossReads(t *testing.T) {
	env, rs, c := causalSetup(2, 5*time.Millisecond)
	defer env.Shutdown()
	sess := c.NewSession()
	env.Spawn("client", func(p sim.Proc) {
		var prev = sess.OperationTime()
		for i := 0; i < 10; i++ {
			sess.Write(p, func(tx cluster.WriteTxn) (any, error) {
				return nil, tx.Set("kv", "k", storage.D{"v": i})
			})
			sess.Read(p, ReadOptions{Pref: Secondary}, func(v cluster.ReadView) (any, error) {
				return nil, nil
			})
			cur := sess.OperationTime()
			if cur.Before(prev) {
				t.Errorf("token moved backward: %v after %v", cur, prev)
			}
			prev = cur
		}
	})
	env.Run(30 * time.Second)
	_ = rs
}

// nonCausalConn wraps a Conn and hides any causal capability — like a
// connection (e.g. an older wire peer) that does not support
// afterClusterTime.
type nonCausalConn struct{ Conn }

func TestSessionDegradesWithoutCausalConn(t *testing.T) {
	env, rs, _ := testSetup(3)
	defer env.Shutdown()
	c := NewClient(env, nonCausalConn{WrapCluster(rs)})
	sess := c.NewSession()
	if sess.Causal() {
		t.Fatal("session claims causality over a non-causal conn")
	}
	env.Spawn("client", func(p sim.Proc) {
		if _, _, err := sess.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "x", "v": 1})
		}); err != nil {
			t.Error(err)
		}
		if _, _, _, err := sess.Read(p, ReadOptions{Pref: Primary}, func(v cluster.ReadView) (any, error) {
			return nil, nil
		}); err != nil {
			t.Error(err)
		}
	})
	env.Run(time.Second)
	if !sess.OperationTime().IsZero() {
		t.Error("degraded session advanced a token")
	}
}

func TestPlainWrapClusterIsCausal(t *testing.T) {
	// In-process connections always support causality via method
	// promotion.
	env, _, c := testSetup(4)
	defer env.Shutdown()
	if !c.NewSession().Causal() {
		t.Fatal("in-process conn should support causal sessions")
	}
}
