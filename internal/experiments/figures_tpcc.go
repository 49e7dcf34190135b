package experiments

import (
	"fmt"
	"time"

	"decongestant/internal/core"
	"decongestant/internal/sim"
	"decongestant/internal/workload/tpcc"
)

// tpccPhase is one stretch of a dynamic TPC-C scenario.
type tpccPhase struct {
	clients int
	until   time.Duration
}

// ExpTPCCScale returns the TPC-C population used by the experiments.
func ExpTPCCScale() tpcc.Scale { return tpcc.DefaultScale() }

// runTPCC executes a phased read-write TPC-C scenario against one
// system; the collector is filtered to Stock Level transactions, which
// is what the paper's TPC-C figures report. The third result is the
// share of NewOrder transactions that failed, in percent.
func runTPCC(kind SystemKind, seed int64, phases []tpccPhase, withS bool, window time.Duration, params core.Params) (*Collector, *Setup, float64) {
	opts := Options{
		Seed:    seed,
		Cluster: ExpClusterConfig(),
		Params:  params,
		AttachS: withS,
	}
	setup := NewSetup(kind, opts)
	sc := ExpTPCCScale()
	if err := tpcc.Load(setup.RS, sc, seed); err != nil {
		panic(fmt.Sprintf("experiments: tpcc load: %v", err))
	}
	col := NewCollector(window, tpcc.KindStockLevel)
	pool := tpcc.NewPool(setup.Env, setup.Exec, col, sc, tpcc.ReadWriteMix())
	for _, ph := range phases {
		pool.SetClients(ph.clients)
		setup.Env.Run(ph.until)
	}
	return col, setup, newOrderFailPct(pool)
}

// newOrderFailPct is the share of a pool's NewOrder transactions that
// failed, in percent (0 when none ran).
func newOrderFailPct(pool *tpcc.Pool) float64 {
	failed, ran := pool.Failures(tpcc.KindNewOrder)
	if ran == 0 {
		return 0
	}
	return 100 * float64(failed) / float64(ran)
}

// Fig4 reproduces Figure 4: read-write TPC-C with the client count
// bursting 20 -> 200 at minute 5 and back to 20 at minute 10 (15
// minutes total). Stock Level throughput and P80 latency are reported
// per minute, the measured secondary percentage per 10 seconds, and
// the seconds in which Decongestant's staleness gate forced all reads
// to the primary are listed (the pink lines).
func Fig4(seed int64, stretch float64) *TimeSeries {
	f := nz(stretch)
	phases := []tpccPhase{
		{clients: 20, until: time.Duration(f * float64(5*time.Minute))},
		{clients: 200, until: time.Duration(f * float64(10*time.Minute))},
		{clients: 20, until: time.Duration(f * float64(15*time.Minute))},
	}
	window := time.Duration(f * float64(time.Minute))
	ts := &TimeSeries{
		Title:  "Figure 4: read-write TPC-C, clients 20 -> 200 -> 20",
		Window: window,
		Rows:   map[string][]Row{},
		Events: []string{
			fmt.Sprintf("clients 20->200 at %s", phases[0].until),
			fmt.Sprintf("clients 200->20 at %s", phases[1].until),
		},
		Extra: map[string][]XY{},
	}
	for _, kind := range AllSystems {
		var gateSamples []XY
		col, setup, failPct := runTPCC(kind, seed, phases, true, window, scaledParams(stretch))
		ts.Notes = append(ts.Notes, fmt.Sprintf("%s: %.1f%% of NewOrders failed", kind, failPct))
		if kind == SysDecongestant {
			// Recover gate activity from the staleness poller's
			// decision trail: the balancer exposes trips via stats and
			// the published fraction; sample the S workload's view too.
			for _, d := range setup.Core.Balancer.Decisions() {
				y := 0.0
				if d.Gated {
					y = 1.0
				}
				gateSamples = append(gateSamples, XY{X: d.At.Seconds(), Y: y})
			}
			ts.Extra["gate"] = gateSamples
			ts.Extra["staleness_estimate"] = stalenessFromSamples(setup)
		}
		ts.Rows[kind.String()] = col.Rows()
		setup.Close()
	}
	return ts
}

func stalenessFromSamples(setup *Setup) []XY {
	if setup.SW == nil {
		return nil
	}
	var out []XY
	for _, s := range setup.SW.Samples() {
		out = append(out, XY{X: s.At.Seconds(), Y: s.Staleness.Seconds()})
	}
	return out
}

// Fig7 reproduces Figure 7: the Stock Level performance vs staleness
// trade-off for read-write TPC-C at 20, 100 and 180 clients.
func Fig7(seed int64, clients []int, stretch float64) *Sweep {
	if len(clients) == 0 {
		clients = []int{20, 100, 180}
	}
	f := nz(stretch)
	warm := time.Duration(f * float64(100*time.Second))
	runFor := time.Duration(f * float64(300*time.Second))
	sw := &Sweep{Title: "Figure 7: read-write TPC-C Stock Level vs staleness trade-off", XLabel: "clients"}
	for _, n := range clients {
		pt := SweepPoint{X: float64(n), Values: map[string]float64{}}
		for _, kind := range AllSystems {
			col, setup, failPct := runTPCC(kind, seed, []tpccPhase{{clients: n, until: runFor}}, true, 10*time.Second, scaledParams(stretch))
			thr, p80, _ := col.Aggregate(warm)
			stale := setup.SW.StalenessPercentile(0.80, warm)
			setup.Close()
			pt.Values[kind.String()+"/throughput"] = thr
			pt.Values[kind.String()+"/p80_ms"] = float64(p80) / float64(time.Millisecond)
			pt.Values[kind.String()+"/p80_staleness_s"] = stale.Seconds()
			pt.Values[kind.String()+"/neworder_fail_pct"] = failPct
		}
		sw.Points = append(sw.Points, pt)
	}
	return sw
}

// Fig11 reproduces Figure 11: the impact of running the S workload
// alongside read-write TPC-C (Read Preference Primary) on Stock Level
// throughput, across client counts. The two curves should overlap.
func Fig11(seed int64, clients []int, stretch float64) *Sweep {
	if len(clients) == 0 {
		clients = []int{20, 60, 100, 140, 200}
	}
	f := nz(stretch)
	warm := time.Duration(f * float64(100*time.Second))
	runFor := time.Duration(f * float64(250*time.Second))
	sw := &Sweep{Title: "Figure 11: Stock Level throughput with vs without S workload (Primary)", XLabel: "clients"}
	for _, n := range clients {
		pt := SweepPoint{X: float64(n), Values: map[string]float64{}}
		for _, withS := range []bool{true, false} {
			col, setup, failPct := runTPCC(SysPrimary, seed, []tpccPhase{{clients: n, until: runFor}}, withS, 10*time.Second, core.DefaultParams())
			thr, _, _ := col.Aggregate(warm)
			setup.Close()
			label := "no_s"
			if withS {
				label = "with_s"
			}
			pt.Values[label+"/throughput"] = thr
			pt.Values[label+"/neworder_fail_pct"] = failPct
		}
		sw.Points = append(sw.Points, pt)
	}
	return sw
}

// Table1 returns the transaction mixes of Table 1 as printable rows.
func Table1() []string {
	std, rw := tpcc.StandardMix(), tpcc.ReadWriteMix()
	return []string{
		"Transaction    TPC-C   Read-Write TPC-C",
		fmt.Sprintf("Stock Level    %3d%%    %3d%%", std.StockLevel, rw.StockLevel),
		fmt.Sprintf("Delivery       %3d%%    %3d%%", std.Delivery, rw.Delivery),
		fmt.Sprintf("Order Status   %3d%%    %3d%%", std.OrderStatus, rw.OrderStatus),
		fmt.Sprintf("Payment        %3d%%    %3d%%", std.Payment, rw.Payment),
		fmt.Sprintf("New Order      %3d%%    %3d%%", std.NewOrder, rw.NewOrder),
	}
}

var _ sim.Proc // keep sim imported for samplers added below
