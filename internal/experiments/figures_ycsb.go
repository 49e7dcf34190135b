package experiments

import (
	"fmt"
	"time"

	"decongestant/internal/core"
	"decongestant/internal/workload/ycsb"
)

// ycsbPhase is one stretch of a dynamic YCSB scenario.
type ycsbPhase struct {
	spec    ycsb.Spec
	clients int
	until   time.Duration
}

// YCSBRecordCount is the population shared by the YCSB experiments.
const YCSBRecordCount = 10_000

// runYCSBParams executes a phased YCSB scenario against one system
// with the given Read Balancer parameters and returns the collector
// and setup (callers Close the setup).
func runYCSBParams(kind SystemKind, seed int64, phases []ycsbPhase, withS bool, params core.Params) (*Collector, *Setup) {
	opts := Options{
		Seed:    seed,
		Cluster: ExpClusterConfig(),
		Params:  params,
		AttachS: withS,
	}
	setup := NewSetup(kind, opts)
	spec := phases[0].spec
	spec.RecordCount = YCSBRecordCount
	if err := ycsb.Load(setup.RS, spec, seed); err != nil {
		panic(fmt.Sprintf("experiments: ycsb load: %v", err))
	}
	col := NewCollector(10*time.Second, "")
	pool := ycsb.NewPool(setup.Env, setup.Exec, col, spec)
	for _, ph := range phases {
		s := ph.spec
		s.RecordCount = YCSBRecordCount
		pool.SetSpec(s)
		pool.SetClients(ph.clients)
		setup.Env.Run(ph.until)
	}
	return col, setup
}

// scalePhases multiplies every phase boundary by stretch (for quick
// test/bench runs; 1.0 reproduces the paper's timeline).
func scalePhases(phases []ycsbPhase, stretch float64) []ycsbPhase {
	if stretch == 0 || stretch == 1 {
		return phases
	}
	out := make([]ycsbPhase, len(phases))
	for i, ph := range phases {
		ph.until = time.Duration(float64(ph.until) * stretch)
		out[i] = ph
	}
	return out
}

// Fig2 reproduces Figure 2: YCSB-A with 180 clients switching to
// YCSB-B at t=620s (run to 900s), S workload alongside. Per-10s read
// throughput, P80 latency, and measured percentage of secondary reads
// for the three systems.
func Fig2(seed int64, stretch float64) *TimeSeries {
	phases := scalePhases([]ycsbPhase{
		{spec: ycsb.WorkloadA(), clients: 180, until: 620 * time.Second},
		{spec: ycsb.WorkloadB(), clients: 180, until: 900 * time.Second},
	}, stretch)
	ts := &TimeSeries{
		Title:  "Figure 2: YCSB-A(180) -> YCSB-B(180) at t=" + phases[0].until.String(),
		Window: 10 * time.Second,
		Rows:   map[string][]Row{},
		Events: []string{fmt.Sprintf("workload switches A->B at %s", phases[0].until)},
	}
	for _, kind := range AllSystems {
		col, setup := runYCSBParams(kind, seed, phases, true, scaledParams(stretch))
		ts.Rows[kind.String()] = col.Rows()
		setup.Close()
	}
	return ts
}

// Fig3 reproduces Figure 3: YCSB-B with 180 clients dropping to
// YCSB-A with 20 clients at t=230s (run to 700s).
func Fig3(seed int64, stretch float64) *TimeSeries {
	phases := scalePhases([]ycsbPhase{
		{spec: ycsb.WorkloadB(), clients: 180, until: 230 * time.Second},
		{spec: ycsb.WorkloadA(), clients: 20, until: 700 * time.Second},
	}, stretch)
	ts := &TimeSeries{
		Title:  "Figure 3: YCSB-B(180) -> YCSB-A(20) at t=" + phases[0].until.String(),
		Window: 10 * time.Second,
		Rows:   map[string][]Row{},
		Events: []string{fmt.Sprintf("workload switches B(180)->A(20) at %s", phases[0].until)},
	}
	for _, kind := range AllSystems {
		col, setup := runYCSBParams(kind, seed, phases, true, scaledParams(stretch))
		ts.Rows[kind.String()] = col.Rows()
		setup.Close()
	}
	return ts
}

// Fig5 reproduces Figure 5: YCSB-B sweep over the number of clients;
// steady-state read throughput, P80 latency and measured percentage of
// secondary reads, with the first 100 s excluded as warm-up.
func Fig5(seed int64, clients []int, stretch float64) *Sweep {
	if len(clients) == 0 {
		clients = []int{10, 20, 40, 60, 80, 100, 120, 140, 160, 180, 200}
	}
	warm := time.Duration(float64(100*time.Second) * nz(stretch))
	runFor := time.Duration(float64(220*time.Second) * nz(stretch))
	sw := &Sweep{Title: "Figure 5: YCSB-B client sweep", XLabel: "clients"}
	for _, n := range clients {
		pt := SweepPoint{X: float64(n), Values: map[string]float64{}}
		for _, kind := range AllSystems {
			col, setup := runYCSBParams(kind, seed, []ycsbPhase{
				{spec: ycsb.WorkloadB(), clients: n, until: runFor},
			}, false, scaledParams(stretch))
			thr, p80, pct := col.Aggregate(warm)
			setup.Close()
			pt.Values[kind.String()+"/throughput"] = thr
			pt.Values[kind.String()+"/p80_ms"] = float64(p80) / float64(time.Millisecond)
			pt.Values[kind.String()+"/pct_secondary"] = pct
		}
		sw.Points = append(sw.Points, pt)
	}
	return sw
}

// Fig6 reproduces Figure 6: the YCSB-A trade-off between performance
// and 80-percentile client-observed data staleness at 20, 100 and 180
// clients. Staleness comes from the S workload run alongside.
func Fig6(seed int64, clients []int, stretch float64) *Sweep {
	if len(clients) == 0 {
		clients = []int{20, 100, 180}
	}
	warm := time.Duration(float64(100*time.Second) * nz(stretch))
	runFor := time.Duration(float64(300*time.Second) * nz(stretch))
	sw := &Sweep{Title: "Figure 6: YCSB-A performance vs staleness trade-off", XLabel: "clients"}
	for _, n := range clients {
		pt := SweepPoint{X: float64(n), Values: map[string]float64{}}
		for _, kind := range AllSystems {
			col, setup := runYCSBParams(kind, seed, []ycsbPhase{
				{spec: ycsb.WorkloadA(), clients: n, until: runFor},
			}, true, scaledParams(stretch))
			thr, p80, _ := col.Aggregate(warm)
			stale := setup.SW.StalenessPercentile(0.80, warm)
			setup.Close()
			pt.Values[kind.String()+"/throughput"] = thr
			pt.Values[kind.String()+"/p80_ms"] = float64(p80) / float64(time.Millisecond)
			pt.Values[kind.String()+"/p80_staleness_s"] = stale.Seconds()
		}
		sw.Points = append(sw.Points, pt)
	}
	return sw
}

// nz treats a zero stretch as 1.
func nz(stretch float64) float64 {
	if stretch == 0 {
		return 1
	}
	return stretch
}

// scaledParams compresses the Read Balancer's decision period in
// proportion to a shortened timeline (floor 2 s), so stretch<1 runs
// converge like compressed full-length runs. At stretch>=1 it returns
// the paper's parameters unchanged.
func scaledParams(stretch float64) core.Params {
	p := core.DefaultParams()
	f := nz(stretch)
	if f < 1 {
		period := time.Duration(f * float64(p.Period))
		if period < 2*time.Second {
			period = 2 * time.Second
		}
		p.Period = period
	}
	return p
}
