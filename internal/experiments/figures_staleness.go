package experiments

import (
	"fmt"
	"time"

	"decongestant/internal/core"
	"decongestant/internal/sim"
	"decongestant/internal/workload/tpcc"
	"decongestant/internal/workload/ycsb"
)

// StalenessResult carries the two series the staleness figures plot:
// the Decongestant estimate (serverStatus-based, 1 Hz) and the
// client-observed staleness from the S workload.
type StalenessResult struct {
	Title string
	// Estimate is the max-secondary-staleness estimate over time (s).
	Estimate []XY
	// Observed is the S workload's client-observed staleness (s).
	Observed []XY
	// BoundSecs is the client-set staleness limit (0 = none plotted).
	BoundSecs int64
	// GatedSeconds counts seconds in which the Balance Fraction was 0.
	GatedSeconds int
	// ViolationCount counts observed samples above the bound.
	ViolationCount int
	// SampleCount is the total number of observed samples.
	SampleCount int
	// Notes are printed after the summary (e.g. the workload's
	// transaction failure share).
	Notes []string
}

// runStalenessScenario runs Decongestant with the S workload attached
// and a 1 Hz sampler of the balancer's staleness estimate and gate.
func runStalenessScenario(seed int64, params core.Params, attach func(*Setup), runFor time.Duration, title string) *StalenessResult {
	opts := Options{Seed: seed, Cluster: ExpClusterConfig(), Params: params, AttachS: true}
	setup := NewSetup(SysDecongestant, opts)
	attach(setup)
	res := &StalenessResult{Title: title, BoundSecs: params.StaleBound}
	gated := 0
	sim.Every(setup.Env, "exp/stale-sampler", time.Second, func(p sim.Proc) {
		res.Estimate = append(res.Estimate, XY{X: p.Now().Seconds(), Y: float64(setup.Core.Balancer.MaxStaleness())})
		if setup.Core.Balancer.Gated() {
			gated++
		}
	})
	setup.Env.Run(runFor)
	for _, s := range setup.SW.Samples() {
		res.Observed = append(res.Observed, XY{X: s.At.Seconds(), Y: s.Staleness.Seconds()})
		res.SampleCount++
		if res.BoundSecs > 0 && s.Staleness > time.Duration(res.BoundSecs)*time.Second {
			res.ViolationCount++
		}
	}
	res.GatedSeconds = gated
	setup.Close()
	return res
}

// Fig8 reproduces Figure 8: the serverStatus-derived staleness
// estimate versus the staleness seen by clients, under YCSB-A with 100
// clients plus the S workload. The estimate should track the observed
// series from above (conservative).
func Fig8(seed int64, stretch float64) *StalenessResult {
	runFor := time.Duration(nz(stretch) * float64(500*time.Second))
	return runStalenessScenario(seed, core.DefaultParams(), func(setup *Setup) {
		spec := ycsb.WorkloadA()
		spec.RecordCount = YCSBRecordCount
		if err := ycsb.Load(setup.RS, spec, seed); err != nil {
			panic(fmt.Sprintf("experiments: ycsb load: %v", err))
		}
		pool := ycsb.NewPool(setup.Env, setup.Exec, nil, spec)
		pool.SetClients(100)
	}, runFor, "Figure 8: staleness estimate vs client-observed (YCSB-A, 100 clients)")
}

// Fig9 reproduces Figure 9: bound enforcement with the default 10 s
// limit under read-write TPC-C with 60 clients. The max secondary
// staleness sometimes exceeds the bound; the clients' observed
// staleness must not.
func Fig9(seed int64, stretch float64) *StalenessResult {
	runFor := time.Duration(nz(stretch) * float64(250*time.Second))
	params := core.DefaultParams() // StaleBound 10s
	return runTPCCStaleness(seed, params, 60, runFor, "Figure 9: bounding staleness at 10s (rw-TPC-C, 60 clients)")
}

// Fig10 reproduces Figure 10: the challenging 3-second bound under
// read-write TPC-C with 200 clients. Most observed samples stay within
// the bound; the paper itself reports two 4 s stragglers.
func Fig10(seed int64, stretch float64) *StalenessResult {
	runFor := time.Duration(nz(stretch) * float64(250*time.Second))
	params := core.DefaultParams()
	params.StaleBound = 3
	return runTPCCStaleness(seed, params, 200, runFor, "Figure 10: bounding staleness at 3s (rw-TPC-C, 200 clients)")
}

// runTPCCStaleness runs the staleness scenario over a read-write-mix
// TPC-C terminal pool of the given size and notes the share of its
// NewOrders that failed.
func runTPCCStaleness(seed int64, params core.Params, clients int, runFor time.Duration, title string) *StalenessResult {
	var pool *tpcc.Pool
	res := runStalenessScenario(seed, params, func(setup *Setup) {
		sc := ExpTPCCScale()
		if err := tpcc.Load(setup.RS, sc, seed); err != nil {
			panic(fmt.Sprintf("experiments: tpcc load: %v", err))
		}
		pool = tpcc.NewPool(setup.Env, setup.Exec, nil, sc, tpcc.ReadWriteMix())
		pool.SetClients(clients)
	}, runFor, title)
	res.Notes = append(res.Notes, fmt.Sprintf("%.1f%% of NewOrders failed", newOrderFailPct(pool)))
	return res
}
