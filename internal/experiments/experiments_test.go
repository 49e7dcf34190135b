package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/obs"
	"decongestant/internal/sim"
	"decongestant/internal/workload/ycsb"
)

// The tests run heavily shortened versions of each experiment and
// check the qualitative claims the paper makes — who wins, where the
// controller settles, whether bounds hold — not absolute numbers.

func TestFig5ShapeAtSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sw := Fig5(1, []int{160}, 0.35)
	pt := sw.Points[0]
	dThr := pt.Values["Decongestant/throughput"]
	sThr := pt.Values["Secondary/throughput"]
	pThr := pt.Values["Primary/throughput"]
	if !(dThr > sThr && sThr > pThr) {
		t.Fatalf("ordering broken: D=%.0f S=%.0f P=%.0f", dThr, sThr, pThr)
	}
	if dThr < 1.05*sThr {
		t.Errorf("Decongestant %.0f not clearly above Secondary %.0f", dThr, sThr)
	}
	if dThr < 2.0*pThr {
		t.Errorf("Decongestant %.0f not ~2.5x Primary %.0f", dThr, pThr)
	}
	pct := pt.Values["Decongestant/pct_secondary"]
	if pct < 55 || pct > 90 {
		t.Errorf("secondary share %.1f%%, want ~70%%", pct)
	}
	if pt.Values["Primary/pct_secondary"] != 0 {
		t.Error("Primary baseline routed reads to secondaries")
	}
	if pt.Values["Secondary/pct_secondary"] != 100 {
		t.Error("Secondary baseline routed reads to the primary")
	}
}

func TestFig5LightLoadStaysNearPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sw := Fig5(1, []int{10}, 0.35)
	pct := sw.Points[0].Values["Decongestant/pct_secondary"]
	// At light load the balancer sits at (or explores around) LowBal.
	if pct > 30 {
		t.Errorf("light-load secondary share %.1f%%, want near 10%%", pct)
	}
}

func TestFig3ShapeAdaptsDownward(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Shortened Figure 3: heavy read phase then light phase. Downward
	// exploration moves 10 percentage points per 4 periods (40 s), so
	// walking from ~90% back to 10% takes ~5-6 minutes — give it that.
	phases := []ycsbPhase{
		{spec: ycsb.WorkloadB(), clients: 180, until: 120 * time.Second},
		{spec: ycsb.WorkloadA(), clients: 20, until: 560 * time.Second},
	}
	col, setup := runYCSBParams(SysDecongestant, 1, phases, false, core.DefaultParams())
	defer setup.Close()
	rows := col.Rows()
	phase1 := avgPct(rows, 60*time.Second, 120*time.Second)
	mid2 := avgPct(rows, 260*time.Second, 320*time.Second)
	end2 := avgPct(rows, 500*time.Second, 560*time.Second)
	if phase1 < 50 {
		t.Errorf("heavy phase share %.1f%%, want high", phase1)
	}
	if end2 >= mid2 {
		t.Errorf("light phase share not decaying: %.1f%% then %.1f%%", mid2, end2)
	}
	if end2 > 30 {
		t.Errorf("light phase share %.1f%% at the end, want to fall toward 10%%", end2)
	}
}

func avgPct(rows []Row, from, to time.Duration) float64 {
	var sum float64
	n := 0
	for _, r := range rows {
		if r.Start >= from && r.Start < to {
			sum += r.PctSecondary
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestFig8EstimateIsConservative(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Fig8(1, 0.3)
	if len(res.Estimate) == 0 || len(res.Observed) == 0 {
		t.Fatal("empty series")
	}
	// Per-second: the estimate must not sit far below what clients see.
	obs := map[int]float64{}
	for _, xy := range res.Observed {
		if xy.Y > obs[int(xy.X)] {
			obs[int(xy.X)] = xy.Y
		}
	}
	below := 0
	for _, e := range res.Estimate {
		if o, ok := obs[int(e.X)]; ok && e.Y+1.5 < o { // 1s granularity + probe skew
			below++
		}
	}
	if frac := float64(below) / float64(len(res.Estimate)); frac > 0.05 {
		t.Errorf("estimate below client-observed in %.1f%% of seconds", 100*frac)
	}
}

func TestFig9BoundMostlyHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Fig9(1, 0.6)
	if res.SampleCount == 0 {
		t.Fatal("no S samples")
	}
	// The paper's claim: clients are protected even when the max
	// secondary staleness exceeds the bound. Allow the same small
	// slack the paper itself shows (reaction granularity is 1s).
	if frac := float64(res.ViolationCount) / float64(res.SampleCount); frac > 0.05 {
		t.Errorf("%.1f%% of client-observed samples above the 10s bound", 100*frac)
	}
}

func TestFig11SWorkloadIsLowImpact(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sw := Fig11(1, []int{120}, 0.35)
	with := sw.Points[0].Values["with_s/throughput"]
	without := sw.Points[0].Values["no_s/throughput"]
	if with == 0 || without == 0 {
		t.Fatal("missing series")
	}
	ratio := with / without
	if ratio < 0.92 || ratio > 1.08 {
		t.Errorf("S workload distorts throughput by %.1f%%", 100*(ratio-1))
	}
}

func TestTable1Rows(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	joined := strings.Join(rows, "\n")
	for _, want := range []string{"Stock Level", "50%", "45%", "43%"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Table1 missing %q:\n%s", want, joined)
		}
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	ts := &TimeSeries{
		Title:  "test",
		Window: 10 * time.Second,
		Rows: map[string][]Row{
			"Primary":      {{Start: 0, Throughput: 100, P80: time.Millisecond, PctSecondary: 0}},
			"Decongestant": {{Start: 0, Throughput: 150, P80: time.Millisecond, PctSecondary: 50}},
		},
		Events: []string{"switch at 10s"},
		Extra:  map[string][]XY{"gate": {{X: 5, Y: 1}}},
	}
	var buf bytes.Buffer
	RenderTimeSeries(&buf, ts)
	out := buf.String()
	for _, want := range []string{"test", "switch at 10s", "gate active", "150"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	buf.Reset()
	RenderSweep(&buf, &Sweep{Title: "sweepy", XLabel: "clients",
		Points: []SweepPoint{{X: 10, Values: map[string]float64{"a": 1}}}})
	if !strings.Contains(buf.String(), "sweepy") {
		t.Error("sweep render empty")
	}
	buf.Reset()
	RenderStaleness(&buf, &StalenessResult{Title: "stale", BoundSecs: 10,
		Estimate: []XY{{X: 1, Y: 2}}, Observed: []XY{{X: 1, Y: 1.5}}, SampleCount: 1})
	if !strings.Contains(buf.String(), "stale") || !strings.Contains(buf.String(), "bound: 10s") {
		t.Error("staleness render wrong")
	}
}

func TestSummarizeTimeSeries(t *testing.T) {
	ts := &TimeSeries{Rows: map[string][]Row{
		"X": {
			{Start: 0, Throughput: 100, PctSecondary: 10, P80: time.Millisecond},
			{Start: 10 * time.Second, Throughput: 200, PctSecondary: 20, P80: 2 * time.Millisecond},
			{Start: 20 * time.Second, Throughput: 300, PctSecondary: 30, P80: 3 * time.Millisecond},
		},
	}}
	sum := SummarizeTimeSeries(ts, 10*time.Second, 30*time.Second)
	if sum["X"].Throughput != 250 || sum["X"].PctSecondary != 25 {
		t.Fatalf("summary %+v", sum["X"])
	}
}

func TestAblationVariantsDistinct(t *testing.T) {
	vs := AblationVariants()
	if len(vs) < 6 {
		t.Fatalf("%d variants", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.Name] {
			t.Fatalf("duplicate variant %q", v.Name)
		}
		seen[v.Name] = true
	}
	if !vs[0].Params.NoRTTSubtraction == false {
		t.Fatal("paper variant must keep RTT subtraction")
	}
}

func TestAblationRunsQuickly(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := RunAblation(1, AblationVariant{Name: "paper", Params: core.DefaultParams()}, 0.2)
	if r.Throughput == 0 {
		t.Fatal("no throughput measured")
	}
}

func TestExpClusterConfigSane(t *testing.T) {
	cfg := ExpClusterConfig()
	if cfg.Nodes != 3 || cfg.CPUSlots == 0 || cfg.ReadCost == 0 {
		t.Fatalf("bad config: %+v", cfg)
	}
}

// TestSetupMetricsCoversAllLayers: after a short workload, the
// harness snapshot reports nonzero instruments from the cluster, the
// driver and the Read Balancer — all in one registry.
func TestSetupMetricsCoversAllLayers(t *testing.T) {
	params := core.DefaultParams()
	params.Period = 2 * time.Second
	s := NewSetup(SysDecongestant, Options{Seed: 1, Cluster: ExpClusterConfig(), Params: params})
	defer s.Close()
	for i := 0; i < 8; i++ {
		s.Env.Spawn("client", func(p sim.Proc) {
			for {
				s.Core.Router.Read(p, func(v cluster.ReadView) (any, error) {
					v.FindByID("kv", "k")
					return nil, nil
				})
			}
		})
	}
	s.Env.Run(30 * time.Second)
	snap := s.Metrics()
	for _, name := range []string{
		obs.Name("cluster.reads", "node", "0"),
		obs.Name("driver.selections", "pref", "primary"),
		"balancer.status_polls",
	} {
		if snap.CounterValue(name) == 0 {
			t.Errorf("%s is zero after workload", name)
		}
	}
	if reasons := sumReasonCounters(snap); reasons == 0 {
		t.Error("no balancer decisions counted")
	}
	if in, ok := snap.Get(obs.Name("cluster.cpu_queue_wait", "node", "0")); !ok || in.Hist == nil || in.Hist.Count == 0 {
		t.Error("queue-wait histogram empty")
	}
}

func sumReasonCounters(snap obs.Snapshot) uint64 {
	var total uint64
	for _, r := range []string{core.ReasonIncrease, core.ReasonDecrease, core.ReasonExplore, core.ReasonHold, core.ReasonGated} {
		total += snap.CounterValue(obs.Name("balancer.decisions", "reason", r))
	}
	return total
}
