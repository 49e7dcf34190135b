package core

// Router-level tests for linearizable reads: they route across lease
// holders with reason-coded decisions, latency files under the role
// that actually served, and the decision ring retains the routing
// evidence for currentOp-style inspection.

import (
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

var linearizable = driver.ReadRequest{ReadOptions: driver.ReadOptions{Pref: driver.Linearizable}}

func newLeaseRouter(seed int64) (*sim.VirtualEnv, *cluster.ReplicaSet, *Router) {
	env := sim.NewEnv(seed)
	cfg := cluster.DefaultConfig()
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	cfg.ReplIdlePoll = 5 * time.Millisecond
	cfg.LinearizableLeases = true
	rs := cluster.New(env, cfg)
	client := driver.NewClient(env, driver.WrapCluster(rs))
	client.StartMonitor(env, 200*time.Millisecond)
	b := NewBalancer(env, client, DefaultParams())
	return env, rs, NewRouter(env, b, client)
}

// TestRouterLinearizableRoutesAndRecords: strong reads through the
// router succeed, spread onto leased secondaries, count per-reason,
// and leave an inspectable decision trail.
func TestRouterLinearizableRoutesAndRecords(t *testing.T) {
	env, rs, r := newLeaseRouter(21)
	defer env.Shutdown()

	const reads = 30
	var secondaryServed int
	env.Spawn("client", func(p sim.Proc) {
		r.client.RefreshRTTs(p)
		if _, _, err := r.client.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "rt", "v": int64(5)})
		}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(500 * time.Millisecond) // grants + monitor snapshot
		for i := 0; i < reads; i++ {
			out, _, err := r.ReadWith(p, linearizable, func(v cluster.ReadView) (any, error) {
				d, ok := v.FindByID("kv", "rt")
				if !ok {
					return int64(-1), nil
				}
				return d.Int("v"), nil
			})
			res, node, reason := out.Value, out.Node, out.Reason
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if res.(int64) != 5 {
				t.Errorf("read %d saw %d, want 5", i, res.(int64))
				return
			}
			if node != rs.PrimaryID() {
				secondaryServed++
				if reason != driver.RouteLeaseValid {
					t.Errorf("secondary-served read %d carries reason %q, want %q", i, reason, driver.RouteLeaseValid)
					return
				}
			}
		}
	})
	env.Run(30 * time.Second)

	if secondaryServed == 0 {
		t.Fatal("router never sent a linearizable read to a leased secondary")
	}
	decs := r.LinearizableDecisions()
	if len(decs) != reads {
		t.Fatalf("decision ring holds %d entries, want %d", len(decs), reads)
	}
	for _, d := range decs {
		if d.Reason == "" || d.Node < 0 {
			t.Fatalf("decision missing evidence: %+v", d)
		}
	}
	snap := r.client.Metrics().Snapshot()
	if got := snap.CounterValue(obs.Name("router.linearizable", "reason", driver.RouteLeaseValid)); got == 0 {
		t.Fatal("router.linearizable{reason=lease-valid} not counted")
	}
	// Latency filed under the serving role: lease-served secondary
	// reads must show up as secondary capacity in the balancer.
	if r.nSecond == 0 {
		t.Fatal("no linearizable latency filed under the secondary role")
	}
}

// TestRouterLinearizableTraceCarriesRoute: a traced strong read
// records the balancer.decision and router.read spans with the
// lease-routing reason, so a trace explains the route end to end.
func TestRouterLinearizableTraceCarriesRoute(t *testing.T) {
	env, _, r := newLeaseRouter(22)
	defer env.Shutdown()
	r.client.Tracer().SetSampling(1)

	var traceID uint64
	env.Spawn("client", func(p sim.Proc) {
		r.client.RefreshRTTs(p)
		p.Sleep(500 * time.Millisecond)
		if _, _, err := r.ReadWith(p, linearizable, func(v cluster.ReadView) (any, error) {
			return nil, nil
		}); err != nil {
			t.Error(err)
			return
		}
		traceID = routerTraceID(r.client.Tracer())
	})
	env.Run(30 * time.Second)

	if traceID == 0 {
		t.Fatal("traced linearizable read returned no trace id")
	}
	spans := r.client.Tracer().TraceSpans(traceID)
	var sawDecision, sawRead bool
	for _, sp := range spans {
		switch sp.Name {
		case "balancer.decision":
			sawDecision = true
			var prefOK bool
			for _, a := range sp.Attrs {
				if a.K == "pref" && a.V == "linearizable" {
					prefOK = true
				}
			}
			if !prefOK {
				t.Fatalf("balancer.decision span lacks pref=linearizable: %+v", sp.Attrs)
			}
		case "router.read":
			sawRead = true
		}
	}
	if !sawDecision || !sawRead {
		t.Fatalf("trace %d missing spans (decision=%v read=%v): %d spans", traceID, sawDecision, sawRead, len(spans))
	}
}
