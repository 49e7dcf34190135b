// Dynamic workload: a condensed Figure-2-style run. YCSB-A with 180
// clients switches to YCSB-B at t=120s; the output shows read
// throughput, mean latency and the measured share of secondary reads
// adapting across the switch — Decongestant's share rises once the
// read-heavy mix congests the primary — compared against the two
// hard-coded baselines.
//
//	go run ./examples/dynamicworkload
package main

import (
	"fmt"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/sim"
	"decongestant/internal/workload"
	"decongestant/internal/workload/ycsb"
)

// window is one printed row: the reads completed in the 20 s ending
// at t, their summed latency, and how many a secondary served.
type window struct {
	t                time.Duration
	reads, secondary int
	lat              time.Duration
}

// makeExec builds the system under test over the replica set.
type makeExec func(env *sim.VirtualEnv, rs *cluster.ReplicaSet) workload.Executor

// run drives 180 YCSB clients against one system, switching the mix
// from YCSB-A to YCSB-B at switchAt, and returns a window every 20 s
// until end.
func run(mk makeExec, switchAt, end time.Duration) []window {
	env := sim.NewEnv(7)
	defer env.Shutdown()
	cfg := cluster.DefaultConfig()
	cfg.CPUSlots = 24
	cfg.ReadCost = 3 * time.Millisecond
	cfg.WriteCost = 7 * time.Millisecond
	cfg.ApplyCost = 500 * time.Microsecond
	rs := cluster.New(env, cfg)
	specA := ycsb.WorkloadA()
	specA.RecordCount = 5000
	if err := ycsb.Load(rs, specA, 7); err != nil {
		panic(err)
	}
	exec := mk(env, rs)

	var w window
	obs := observerFunc(func(at time.Duration, pref driver.ReadPref, lat time.Duration, kind string) {
		w.reads++
		w.lat += lat
		if pref == driver.Secondary {
			w.secondary++
		}
	})
	pool := ycsb.NewPool(env, exec, obs, specA)
	pool.SetClients(180)

	var out []window
	for t := 20 * time.Second; t <= end; t += 20 * time.Second {
		if t-20*time.Second == switchAt {
			pool.SetSpec(ycsb.WorkloadB())
		}
		w = window{t: t}
		env.Run(t)
		out = append(out, w)
	}
	return out
}

// sharePct is the percentage of the window's reads a secondary served.
func (w window) sharePct() float64 {
	if w.reads == 0 {
		return 0
	}
	return 100 * float64(w.secondary) / float64(w.reads)
}

type observerFunc func(at time.Duration, pref driver.ReadPref, lat time.Duration, kind string)

func (f observerFunc) ObserveRead(at time.Duration, pref driver.ReadPref, lat time.Duration, kind string) {
	f(at, pref, lat, kind)
}
func (f observerFunc) ObserveWrite(time.Duration, time.Duration, string) {}

func decongestant(env *sim.VirtualEnv, rs *cluster.ReplicaSet) workload.Executor {
	sys := core.NewSystem(env, driver.WrapCluster(rs), core.DefaultParams())
	return workload.RouterExec{Router: sys.Router}
}

func main() {
	const switchAt, end = 120 * time.Second, 240 * time.Second
	for _, sys := range []struct {
		name string
		mk   makeExec
	}{
		{"hard-coded Primary", func(env *sim.VirtualEnv, rs *cluster.ReplicaSet) workload.Executor {
			return workload.FixedPref{Client: driver.NewClient(env, driver.WrapCluster(rs)), Pref: driver.Primary}
		}},
		{"hard-coded Secondary", func(env *sim.VirtualEnv, rs *cluster.ReplicaSet) workload.Executor {
			return workload.FixedPref{Client: driver.NewClient(env, driver.WrapCluster(rs)), Pref: driver.Secondary}
		}},
		{"Decongestant", decongestant},
	} {
		fmt.Printf("\n--- %s ---\n", sys.name)
		fmt.Println("t(s)   reads/s   mean-lat(ms)   secondary%")
		for _, w := range run(sys.mk, switchAt, end) {
			if w.t-20*time.Second == switchAt {
				fmt.Println("      >>> workload switches YCSB-A -> YCSB-B <<<")
			}
			mean := time.Duration(0)
			if w.reads > 0 {
				mean = w.lat / time.Duration(w.reads)
			}
			fmt.Printf("%4.0f  %8.0f  %13.2f  %10.1f\n",
				w.t.Seconds(), float64(w.reads)/20,
				float64(mean)/float64(time.Millisecond), w.sharePct())
		}
	}
}
