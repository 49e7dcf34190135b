package driver

// Driver-side tests for linearizable reads: server selection across
// lease holders, the primary fallback with end-to-end reason
// attribution, and session composition (read-your-writes tokens ride
// linearizable reads).

import (
	"strings"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/obs"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

func leaseSetup(seed int64) (*sim.VirtualEnv, *cluster.ReplicaSet, *Client) {
	env := sim.NewEnv(seed)
	cfg := cluster.DefaultConfig()
	cfg.ReplIdlePoll = 5 * time.Millisecond
	cfg.HeartbeatInterval = 100 * time.Millisecond
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	cfg.LinearizableLeases = true
	rs := cluster.New(env, cfg)
	c := NewClient(env, WrapCluster(rs))
	return env, rs, c
}

func TestLinearizableReadPrefString(t *testing.T) {
	if Linearizable.String() != "linearizable" {
		t.Fatalf("Linearizable.String()=%q", Linearizable.String())
	}
}

// TestSelectServerLinearizableSpreadsAcrossLeaseholders: with a
// topology snapshot showing leased members, linearizable selection
// routes across them — not just the primary — and before any snapshot
// arrives it degrades to primary-only.
func TestSelectServerLinearizableSpreadsAcrossLeaseholders(t *testing.T) {
	env, rs, c := leaseSetup(11)
	defer env.Shutdown()

	// No snapshot yet: only the primary is a candidate.
	if id, err := c.SelectServer(ReadOptions{Pref: Linearizable}); err != nil || id != rs.PrimaryID() {
		t.Fatalf("pre-snapshot selection = %d, %v; want primary %d", id, err, rs.PrimaryID())
	}

	c.StartMonitor(env, 200*time.Millisecond)
	env.Spawn("warm", func(p sim.Proc) { c.RefreshRTTs(p) })
	env.Run(2 * time.Second) // heartbeats grant; monitor observes Leased flags

	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		id, err := c.SelectServer(ReadOptions{Pref: Linearizable})
		if err != nil {
			t.Fatal(err)
		}
		seen[id] = true
	}
	if len(seen) < 2 {
		t.Fatalf("linearizable selection never left the primary: %v", seen)
	}
}

// TestReadLinearizableServedByLeasedSecondary: end to end through the
// driver, linearizable reads see the latest majority-committed write
// and at least some are served locally by a leased secondary with the
// lease-valid routing reason.
func TestReadLinearizableServedByLeasedSecondary(t *testing.T) {
	env, rs, c := leaseSetup(12)
	defer env.Shutdown()
	c.StartMonitor(env, 200*time.Millisecond)

	var localLease int
	env.Spawn("client", func(p sim.Proc) {
		c.RefreshRTTs(p)
		if _, _, err := c.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "strong", "v": int64(9)})
		}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * time.Millisecond) // leases granted + snapshot observed
		for i := 0; i < 20; i++ {
			r, err := c.ReadWith(p, ReadRequest{ReadOptions: ReadOptions{Pref: Linearizable}}, func(v cluster.ReadView) (any, error) {
				d, ok := v.FindByID("kv", "strong")
				if !ok {
					return int64(-1), nil
				}
				return d.Int("v"), nil
			})
			res, node, reason := r.Value, r.Node, r.Reason
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if res.(int64) != 9 {
				t.Errorf("read %d saw %d, want 9", i, res.(int64))
				return
			}
			if node != rs.PrimaryID() && reason == RouteLeaseValid {
				localLease++
			}
		}
	})
	env.Run(30 * time.Second)
	if localLease == 0 {
		t.Fatal("no linearizable read was lease-served by a secondary")
	}
}

// TestReadLinearizableFallbackAttributesReason: a secondary that
// cannot honor its advertised lease rejects, and the driver retries at
// the primary while surfacing WHY — in the returned reason, the
// driver.lease_fallbacks counter, and the driver.read span — so the
// extra hop is attributable. The stale snapshot is injected directly:
// the monitor claims leased secondaries while the cluster has leases
// off, so every secondary attempt rejects with no-lease.
func TestReadLinearizableFallbackAttributesReason(t *testing.T) {
	env, rs, c := testSetup(13) // leases OFF in the cluster
	defer env.Shutdown()

	// Forge the monitor view: all members leased under epoch 1.
	st := &cluster.Status{LeaseEpoch: 1}
	for _, id := range rs.NodeIDs() {
		st.Members = append(st.Members, cluster.MemberStatus{
			ID: id, Primary: id == rs.PrimaryID(), Leased: id != rs.PrimaryID(),
		})
	}
	c.mu.Lock()
	c.lastStat = st
	c.mu.Unlock()

	var reason string
	var node int
	env.Spawn("client", func(p sim.Proc) {
		c.RefreshRTTs(p)
		rs.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "fb", "v": 1})
		})
		for i := 0; i < 50; i++ {
			r, err := c.ReadWith(p, ReadRequest{ReadOptions: ReadOptions{Pref: Linearizable}}, func(v cluster.ReadView) (any, error) {
				return nil, nil
			})
			n, why := r.Node, r.Reason
			if err != nil {
				t.Error(err)
				return
			}
			if strings.Contains(why, "→primary") {
				reason, node = why, n
				return
			}
		}
	})
	env.Run(30 * time.Second)

	want := cluster.LeaseReasonNoLease + "→primary"
	if reason != want {
		t.Fatalf("fallback reason %q, want %q", reason, want)
	}
	if node != rs.PrimaryID() {
		t.Fatalf("fallback served by node %d, want primary %d", node, rs.PrimaryID())
	}
	snap := c.Metrics().Snapshot()
	if got := snap.CounterValue(obs.Name("driver.lease_fallbacks", "reason", cluster.LeaseReasonNoLease)); got == 0 {
		t.Fatal("driver.lease_fallbacks{reason=no-lease} not counted")
	}
}

// TestSessionReadLinearizableComposesToken: a causal session's
// Pref Linearizable read carries the session token (read-your-writes) and
// advances it with the served optime.
func TestSessionReadLinearizableComposesToken(t *testing.T) {
	env, _, c := leaseSetup(14)
	defer env.Shutdown()
	c.StartMonitor(env, 200*time.Millisecond)
	sess := c.NewSession()

	env.Spawn("client", func(p sim.Proc) {
		c.RefreshRTTs(p)
		p.Sleep(500 * time.Millisecond)
		if _, _, err := sess.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "tok", "v": int64(3)})
		}); err != nil {
			t.Error(err)
			return
		}
		wrote := sess.OperationTime()
		if wrote.IsZero() {
			t.Error("session token not advanced by write")
			return
		}
		res, _, _, err := sess.Read(p, ReadOptions{Pref: Linearizable}, func(v cluster.ReadView) (any, error) {
			d, ok := v.FindByID("kv", "tok")
			if !ok {
				return int64(-1), nil
			}
			return d.Int("v"), nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		if res.(int64) != 3 {
			t.Errorf("session linearizable read saw %d, want 3", res.(int64))
		}
		if sess.OperationTime().Before(wrote) {
			t.Errorf("session token regressed: %v < %v", sess.OperationTime(), wrote)
		}
	})
	env.Run(30 * time.Second)
}
