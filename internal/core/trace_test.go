package core

import (
	"strconv"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/obs/trace"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// routerTraceID returns the trace id of the newest router.read span
// (0 when none was recorded).
func routerTraceID(tr *trace.Recorder) uint64 {
	for _, sp := range tr.Recent(0) {
		if sp.Name == "router.read" {
			return sp.Trace
		}
	}
	return 0
}

// TestRoutedReadTraceTree is the in-process acceptance check for the
// tracing tentpole: a balancer-routed read sampled at rate 1 yields a
// causally linked span tree — router.read at the root, a
// balancer.decision child carrying the routing reason and staleness
// estimate, the driver hop beneath the root, and the node exec span
// hanging off the driver hop.
func TestRoutedReadTraceTree(t *testing.T) {
	env := sim.NewEnv(11)
	defer env.Shutdown()
	cfg := cluster.DefaultConfig()
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	rs := cluster.New(env, cfg)
	sys := NewSystem(env, driver.WrapCluster(rs), DefaultParams())
	rs.Tracer().SetSampling(1)

	var traceID uint64
	env.Spawn("client", func(p sim.Proc) {
		_, err := rs.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Insert("kv", storage.D{"_id": "k", "v": 1})
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, _, _, err := sys.Router.Read(p, func(v cluster.ReadView) (any, error) {
			v.FindByID("kv", "k")
			return nil, nil
		}); err != nil {
			t.Error(err)
			return
		}
		traceID = routerTraceID(rs.Tracer())
	})
	env.Run(10 * time.Second)

	if traceID == 0 {
		t.Fatal("rate-1 sampling produced no trace id")
	}
	spans := rs.Tracer().TraceSpans(traceID)
	byName := map[string]trace.Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	for _, name := range []string{"router.read", "balancer.decision", "driver.read", "node.exec_read"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("trace missing span %q; got %+v", name, spans)
		}
	}
	root := byName["router.read"]
	if root.Parent != 0 {
		t.Fatalf("router.read should be the root, has parent %x", root.Parent)
	}
	if byName["balancer.decision"].Parent != root.ID {
		t.Fatalf("balancer.decision parent %x, want root %x", byName["balancer.decision"].Parent, root.ID)
	}
	if byName["driver.read"].Parent != root.ID {
		t.Fatalf("driver.read parent %x, want root %x", byName["driver.read"].Parent, root.ID)
	}
	if byName["node.exec_read"].Parent != byName["driver.read"].ID {
		t.Fatalf("node.exec_read parent %x, want driver span %x",
			byName["node.exec_read"].Parent, byName["driver.read"].ID)
	}

	// The decision span must carry the routing evidence: a preference,
	// a reason code, and the balancer's staleness estimate.
	attrs := map[string]string{}
	for _, a := range byName["balancer.decision"].Attrs {
		attrs[a.K] = a.V
	}
	if attrs["pref"] != driver.Primary.String() && attrs["pref"] != driver.Secondary.String() {
		t.Fatalf("decision pref %q", attrs["pref"])
	}
	if _, err := strconv.ParseInt(attrs["stale_secs"], 10, 64); err != nil {
		t.Fatalf("decision stale_secs %q not an integer: %v", attrs["stale_secs"], err)
	}
	if _, err := strconv.Atoi(attrs["frac_pct"]); err != nil {
		t.Fatalf("decision frac_pct %q not an integer: %v", attrs["frac_pct"], err)
	}
	if _, ok := attrs["gated"]; !ok {
		t.Fatal("decision span lacks gated attr")
	}
}

// TestBalancerStalenessPollErrorCounter asserts the once-silent
// staleness poll failure is now visible: with every node down, the
// poll loop increments balancer.staleness_poll_errors and the poll-age
// gauge stays at -1 (never succeeded).
func TestBalancerStalenessPollErrorCounter(t *testing.T) {
	env := sim.NewEnv(12)
	defer env.Shutdown()
	cfg := cluster.DefaultConfig()
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	rs := cluster.New(env, cfg)
	for _, id := range rs.NodeIDs() {
		rs.SetDown(id, true)
	}
	params := DefaultParams()
	params.StalenessPoll = 100 * time.Millisecond
	sys := NewSystem(env, driver.WrapCluster(rs), params)
	env.Run(2 * time.Second)

	snap := sys.Client.Metrics().Snapshot()
	if errs := snap.CounterValue("balancer.staleness_poll_errors"); errs == 0 {
		t.Fatal("staleness poll failures left no counter trace")
	}
	if age := snap.GaugeValue("balancer.staleness_poll_age_secs"); age != -1 {
		t.Fatalf("poll-age gauge %d with no successful poll, want -1", age)
	}
}

// TestBalancerStalenessPollAgeTracksSuccess asserts the poll-age gauge
// reflects the last successful poll on a healthy cluster.
func TestBalancerStalenessPollAgeTracksSuccess(t *testing.T) {
	env := sim.NewEnv(13)
	defer env.Shutdown()
	cfg := cluster.DefaultConfig()
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	rs := cluster.New(env, cfg)
	params := DefaultParams()
	params.StalenessPoll = 100 * time.Millisecond
	sys := NewSystem(env, driver.WrapCluster(rs), params)
	env.Run(5 * time.Second)

	snap := sys.Client.Metrics().Snapshot()
	if errs := snap.CounterValue("balancer.staleness_poll_errors"); errs != 0 {
		t.Fatalf("healthy cluster logged %d poll errors", errs)
	}
	age := snap.GaugeValue("balancer.staleness_poll_age_secs")
	if age < 0 || age > 1 {
		t.Fatalf("poll-age gauge %ds under a 100ms poll, want within a second", age)
	}
}
