// Quickstart: build a simulated 3-node replica set, put Decongestant
// in front of it, and watch the Balance Fraction react as 150
// closed-loop clients congest the primary: it rises from the initial
// 10%, and the share of reads served by secondaries follows it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// sample is one printed row: the Balance Fraction, the share of the
// last interval's reads served by secondaries, and the staleness
// estimate at time t.
type sample struct {
	t          time.Duration
	balancePct int
	sharePct   float64
	maxStale   int64
}

func main() {
	fmt.Println("t(s)  balance%  secondary-share%  max-staleness(s)")
	for _, s := range run() {
		fmt.Printf("%4.0f  %7d%%  %16.1f  %16d\n",
			s.t.Seconds(), s.balancePct, s.sharePct, s.maxStale)
	}
	fmt.Println("\nDecongestant shifted reads to the secondaries as the primary congested.")
}

// run simulates 120 s and samples every 10 s.
func run() []sample {
	// A deterministic virtual-time environment: two simulated minutes
	// take a few seconds of wall time (6.5 s on a 2-vCPU VM).
	env := sim.NewEnv(42)
	defer env.Shutdown()

	// A MongoDB-like replica set: primary + 2 secondaries, oplog
	// replication, heartbeats, checkpoints.
	rs := cluster.New(env, cluster.DefaultConfig())

	// Preload one hot document on every node (as if restored from a
	// snapshot).
	err := rs.Bootstrap(func(s *storage.Store) error {
		return s.C("kv").Insert(storage.D{"_id": "hot", "v": 0})
	})
	if err != nil {
		panic(err)
	}

	// Decongestant: driver session + Read Balancer + Router, with the
	// paper's parameters (10% initial fraction, 10s staleness bound).
	sys := core.NewSystem(env, driver.WrapCluster(rs), core.DefaultParams())

	// 150 closed-loop readers, each routed through the Router's biased
	// coin. The primary saturates; the Balancer shifts reads away.
	for i := 0; i < 150; i++ {
		env.Spawn("client", func(p sim.Proc) {
			for {
				sys.Router.Read(p, func(v cluster.ReadView) (any, error) {
					d, _ := v.FindByID("kv", "hot")
					return d.Int("v"), nil
				})
			}
		})
	}
	// One writer keeps the oplog moving.
	env.Spawn("writer", func(p sim.Proc) {
		for i := 0; ; i++ {
			sys.Router.Write(p, func(tx cluster.WriteTxn) (any, error) {
				return nil, tx.Set("kv", "hot", storage.D{"v": i})
			})
			p.Sleep(50 * time.Millisecond)
		}
	})

	var out []sample
	var lastPrim, lastSec int64
	for t := 10 * time.Second; t <= 120*time.Second; t += 10 * time.Second {
		env.Run(t)
		prim, sec := sys.Router.Counts(false)
		dPrim, dSec := prim-lastPrim, sec-lastSec
		lastPrim, lastSec = prim, sec
		share := 0.0
		if dPrim+dSec > 0 {
			share = 100 * float64(dSec) / float64(dPrim+dSec)
		}
		out = append(out, sample{t, sys.Balancer.FractionPct(), share, sys.Balancer.MaxStaleness()})
	}
	return out
}
