// Staleness bound: demonstrates the freshness gate. Heavy write
// pressure plus long checkpoints push the secondaries' staleness past
// the client's 5-second bound; the Read Balancer snaps the Balance
// Fraction to 0 until they catch up, and the S workload measures the
// staleness clients actually observed. The gate trips three times and
// the observed P80 is 52 ms, but the bound is not a hard cap: the
// estimate is polled once a second, so reads that land between the lag
// crossing the bound and the next poll see more, and the observed
// maximum is 6.03 s. The paper's Figure 10 shows the same exceedance
// at its 1 s reporting granularity (this repository's Figure 10 run
// records 4.5 and 5.1 s against a 3 s bound).
//
//	go run ./examples/stalenessbound
package main

import (
	"fmt"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/workload/sworkload"
)

// report is what the example prints: the gate's state every 5 s, then
// the staleness the S workload observed and the gate trips.
type report struct {
	rows      []row
	p80, max  time.Duration
	probes    int
	gateTrips int
	bound     int64 // seconds
}

type row struct {
	t          time.Duration
	estimate   int64 // seconds
	gated      bool
	balancePct int
}

func main() {
	r := run()
	fmt.Println("t(s)  estimate(s)  gated  balance%")
	for _, w := range r.rows {
		fmt.Printf("%4.0f  %11d  %5v  %7d%%\n", w.t.Seconds(), w.estimate, w.gated, w.balancePct)
	}
	fmt.Printf("\nclient-observed staleness: P80=%v max=%v over %d probes\n", r.p80, r.max, r.probes)
	fmt.Printf("gate trips: %d (bound %ds)\n", r.gateTrips, r.bound)
}

// run simulates 120 s under the 5 s bound.
func run() report {
	env := sim.NewEnv(11)
	defer env.Shutdown()

	cfg := cluster.DefaultConfig()
	// Aggressive checkpoints so replication stalls visibly.
	cfg.CheckpointInterval = 30 * time.Second
	cfg.CheckpointMinDuration = 8 * time.Second
	cfg.CheckpointPerMB = 0
	cfg.CheckpointMaxDuration = 8 * time.Second
	rs := cluster.New(env, cfg)

	params := core.DefaultParams()
	params.StaleBound = 5 // seconds
	sys := core.NewSystem(env, driver.WrapCluster(rs), params)

	// The S workload probes staleness through the same gate the
	// application's reads use.
	bal := sys.Balancer
	sw := sworkload.New(env, sys.Client, sworkload.Options{
		ProbeSecondary: func() bool { return bal.Fraction() > 0 },
	})
	sw.Start()

	// Write pressure + a read mix through the router.
	for i := 0; i < 8; i++ {
		env.Spawn("writer", func(p sim.Proc) {
			for j := 0; ; j++ {
				sys.Router.Write(p, func(tx cluster.WriteTxn) (any, error) {
					return nil, tx.Set("load", fmt.Sprintf("k%d", j%100), storage.D{"v": j})
				})
				p.Sleep(2 * time.Millisecond)
			}
		})
	}
	for i := 0; i < 40; i++ {
		env.Spawn("reader", func(p sim.Proc) {
			for {
				sys.Router.Read(p, func(v cluster.ReadView) (any, error) {
					v.FindByID("load", "k1")
					return nil, nil
				})
			}
		})
	}

	var r report
	for t := 5 * time.Second; t <= 120*time.Second; t += 5 * time.Second {
		env.Run(t)
		r.rows = append(r.rows, row{t, bal.MaxStaleness(), bal.Gated(), bal.FractionPct()})
	}
	r.p80, r.max, r.probes = sw.StalenessPercentile(0.80, 0), sw.MaxStaleness(0), len(sw.Samples())
	r.gateTrips, r.bound = bal.Stats().GateTrips, params.StaleBound
	return r
}
