package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/experiments"
	"decongestant/internal/obs"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/workload"
	"decongestant/internal/workload/sworkload"
	"decongestant/internal/workload/ycsb"
)

// A workload's virtual-time part is the paper's Figure 5 setting: the
// experiments' modeled cluster, the Decongestant Read Balancer and
// Router, and closed-loop YCSB clients past the saturation knee, with
// the S workload measuring the staleness clients actually see. Its sim_*
// results depend only on the seed. The traced run simulates twice with
// the same seed, and the second repetition must reproduce the first
// one's sim_* values bit for bit.

// simObserver keeps the exact latency of every operation that
// completed inside the measured window.
type simObserver struct {
	from          time.Duration
	mu            sync.Mutex
	reads, writes []time.Duration
}

func (o *simObserver) ObserveRead(at time.Duration, _ driver.ReadPref, lat time.Duration, _ string) {
	if at < o.from {
		return
	}
	o.mu.Lock()
	o.reads = append(o.reads, lat)
	o.mu.Unlock()
}

func (o *simObserver) completed() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return int64(len(o.reads) + len(o.writes))
}

func (o *simObserver) ObserveWrite(at time.Duration, lat time.Duration, _ string) {
	if at < o.from {
		return
	}
	o.mu.Lock()
	o.writes = append(o.writes, lat)
	o.mu.Unlock()
}

// checkingExec counts every operation and fails any read that does not
// return the requested record with the full record shape.
type checkingExec struct {
	inner workload.Executor
	check recordChecker

	mu                sync.Mutex
	attempted, failed int64
	firstErr          error
}

func (e *checkingExec) done(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if err != nil {
		e.failed++
		if e.firstErr == nil {
			e.firstErr = err
		}
	}
}

func (e *checkingExec) Read(p sim.Proc, fn func(v cluster.ReadView) (any, error)) (any, driver.ReadPref, time.Duration, error) {
	var bad error
	res, pref, lat, err := e.inner.Read(p, func(v cluster.ReadView) (any, error) {
		return fn(checkingView{ReadView: v, check: e.check, bad: &bad})
	})
	if err == nil {
		err = bad
	}
	e.done(err)
	return res, pref, lat, err
}

func (e *checkingExec) Write(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, time.Duration, error) {
	res, lat, err := e.inner.Write(p, fn)
	e.done(err)
	return res, lat, err
}

// checkingView checks every YCSB record a read body looks up.
type checkingView struct {
	cluster.ReadView
	check recordChecker
	bad   *error
}

func (v checkingView) FindByID(collection, id string) (storage.Document, bool) {
	d, ok := v.ReadView.FindByID(collection, id)
	if collection == ycsb.Table && *v.bad == nil {
		*v.bad = v.check.check(d, ok, id)
	}
	return d, ok
}

// simRun is one repetition's outcome.
type simRun struct {
	setupS    float64
	sim       [5]float64 // read ops/s, read p50, read p99, write p50 (ms), staleness p95 (ms)
	cpuPerOp  float64
	heapMB    float64
	attempted int64
	failed    int64
	ops       int64
	cost      windowCost
	failures  []string
	layer     *result // per-layer figures of a traced repetition
}

var simNames = [5]string{"sim_read_ops_per_s", "sim_read_p50_ms", "sim_read_p99_ms", "sim_write_p50_ms", "sim_staleness_p95_ms"}
var simUnits = [5]string{"1/s", "ms", "ms", "ms", "ms"}

func simParams() core.Params {
	p := core.DefaultParams()
	// The decision period is compressed as the experiments compress it
	// for shortened timelines, so the balancer converges within the
	// warm-up.
	p.Period = 2 * time.Second
	return p
}

// buildSim assembles the system under test and loads the records.
func buildSim(opts options, spec ycsb.Spec) (*experiments.Setup, ycsb.Spec, error) {
	s := experiments.NewSetup(experiments.SysDecongestant, experiments.Options{
		Seed:    opts.seed,
		Cluster: experiments.ExpClusterConfig(),
		Params:  simParams(),
		AttachS: true,
		SWOpts:  sworkload.Options{WriterInterval: 10 * time.Millisecond, ProbeInterval: 50 * time.Millisecond},
	})
	spec.RecordCount = opts.size.simRecords
	if err := ycsb.Load(s.RS, spec, opts.seed); err != nil {
		s.Close()
		return nil, spec, fmt.Errorf("load: %w", err)
	}
	return s, spec, nil
}

func simOnce(opts options, spec ycsb.Spec, traced bool) (*simRun, error) {
	resume := pauseGC()
	start := time.Now()
	s, spec, err := buildSim(opts, spec)
	resume()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	run := &simRun{setupS: time.Since(start).Seconds()}

	warm := time.Duration(opts.size.simWarm * float64(time.Second))
	end := warm + time.Duration(opts.size.simMeasure*float64(time.Second))
	obsv := &simObserver{from: warm}
	exec := &checkingExec{inner: s.Exec, check: newRecordChecker(spec)}
	pool := ycsb.NewPool(s.Env, exec, obsv, spec)
	pool.SetClients(opts.size.simClients)

	var lag *lagSampler
	var fracSum, fracN int64
	if traced {
		lag = &lagSampler{rs: s.RS, from: warm}
		sim.Every(s.Env, "perfbench/lag-sampler", 10*time.Millisecond, func(p sim.Proc) { lag.sample(p.Now()) })
		sim.Every(s.Env, "perfbench/fraction-sampler", 100*time.Millisecond, func(p sim.Proc) {
			if p.Now() >= warm {
				fracSum += int64(s.Core.Balancer.FractionPct())
				fracN++
			}
		})
	}

	// CPU samples every half virtual second of the window give
	// cpu_us_per_op as a median over sub-windows, as on the real clock.
	var subs []cpuSample
	sim.Every(s.Env, "perfbench/cpu-sampler", 500*time.Millisecond, func(p sim.Proc) {
		if p.Now() > warm {
			subs = append(subs, cpuSample{cpu: cpuTime(), ops: obsv.completed()})
		}
	})

	s.Env.Run(warm)
	s.Core.Router.Counts(true)
	before := s.RS.Metrics().Snapshot()
	nodesBefore := nodeStats(s.RS)
	runtime.GC()
	w := openWindow()
	subs = append(subs, cpuSample{cpu: cpuTime(), ops: obsv.completed()})
	s.Env.Run(end)
	run.cost = closeWindow(w)
	run.cost.cpuPerOpUS = medianCPUPerOp(subs)
	run.heapMB = liveHeapMB()
	after := s.RS.Metrics().Snapshot()
	nodesAfter := nodeStats(s.RS)

	measureS := (end - warm).Seconds()
	run.ops = int64(len(obsv.reads) + len(obsv.writes))
	run.attempted, run.failed = exec.attempted, exec.failed
	if exec.firstErr != nil {
		run.failures = append(run.failures, fmt.Sprintf("first failed operation: %v", exec.firstErr))
	}
	if run.ops == 0 || len(obsv.writes) == 0 {
		run.failures = append(run.failures, "no reads or no writes completed in the window")
		return run, nil
	}
	var stale []time.Duration
	for _, smp := range s.SW.Samples() {
		if smp.At >= warm {
			stale = append(stale, smp.Staleness)
		}
	}
	if n := beyond(stale, 0.95); n < 10 {
		run.failures = append(run.failures, fmt.Sprintf("only %d S probes beyond the staleness p95 (of %d)", n, len(stale)))
	}
	run.sim = [5]float64{
		float64(len(obsv.reads)) / measureS,
		ms(percentile(obsv.reads, 0.5)),
		ms(percentile(obsv.reads, 0.99)),
		ms(percentile(obsv.writes, 0.5)),
		ms(percentile(stale, 0.95)),
	}
	if n := beyond(obsv.reads, 0.99); n < 10 {
		run.failures = append(run.failures, fmt.Sprintf("only %d reads beyond p99", n))
	}
	run.cpuPerOp = run.cost.cpuPerOpUS
	if v := after.CounterValue("freshness.bound_violations"); v != 0 {
		run.failures = append(run.failures, fmt.Sprintf("freshness.bound_violations = %d", v))
	}
	for _, st := range nodesAfter {
		if st.ApplyErrors != 0 {
			run.failures = append(run.failures, fmt.Sprintf("cluster.apply_errors = %d", st.ApplyErrors))
			break
		}
	}

	if traced {
		lr := &result{}
		prim, sec := s.Core.Router.Counts(false)
		lr.set("core.balance_fraction_pct", float64(fracSum)/float64(max(fracN, 1)), "%")
		lr.set("core.secondary_read_pct", 100*float64(sec)/float64(max(prim+sec, 1)), "%")
		lr.set("core.gate_trips", counterDelta(before, after, "balancer.gate_trips"), "count")
		lr.set("core.status_polls_per_s", counterDelta(before, after, "balancer.status_polls")/measureS, "1/s")
		lr.set("driver.fallback_retries", counterDelta(before, after, "driver.fallback_retries"), "count")
		qw, _ := after.Get(obs.Name("cluster.cpu_queue_wait", "node", fmt.Sprint(s.RS.PrimaryID())))
		if qw.Hist != nil {
			lr.set("cluster.queue_wait_p99_ms", ms(qw.Hist.P99), "ms")
		}
		clusterRunMetrics(lr, s.RS, nodesBefore, nodesAfter, false)
		lr.set("cluster.repl_lag_ms", lag.meanMS(), "ms")
		// The collector runs as usual here, unlike in the real-clock
		// windows.
		lr.set("runtime.gc_cycles_per_kop", 1000*float64(run.cost.gcCycles)/float64(run.ops), "count")
		run.layer = lr
	}
	return run, nil
}

// runCongested is a workload's virtual-time part. Untraced it
// simulates once and reports the sim_* metrics, with set-up time and
// live heap for the caller to add to the real-clock part's; traced it
// simulates an untraced and a traced repetition and reports the core
// and congestion metrics.
func runCongested(opts options, spec ycsb.Spec) (*result, error) {
	res := &result{}
	var runs []*simRun
	var setups []float64
	for len(runs) < 1 || opts.trace && len(runs) < 2 {
		traced := len(runs) == 1
		run, err := simOnce(opts, spec, traced)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
		setups = append(setups, run.setupS)
		res.attempted += run.attempted
		res.failed += run.failed
		res.failures = append(res.failures, run.failures...)
		if len(run.failures) > 0 {
			return res, nil
		}
		if run.sim != runs[0].sim {
			res.fail("repetition %d gave sim metrics %v, the first gave %v", len(runs), run.sim, runs[0].sim)
			return res, nil
		}
		label := ""
		if traced {
			label = " (traced)"
		}
		res.say("# simulation %d%s: ops in window %d, setup %.3fs, window wall %.2fs cpu %.2fs, sim cpu_us_per_op %.3f, host.steal_pct %.2f",
			len(runs), label, run.ops, run.setupS, run.cost.wall.Seconds(), run.cost.cpu.Seconds(), run.cpuPerOp, run.cost.steal)
	}
	first := runs[0]
	if opts.trace {
		for name, m := range runs[1].layer.metrics {
			res.set(name, m.Value, m.Unit)
		}
		res.set("sim.cpu_us_per_op", first.cpuPerOp, "us")
		return res, nil
	}
	// setup_s is a median over the same number of set-ups as the
	// real-clock part's.
	for len(setups) < opts.size.setups {
		resume := pauseGC()
		start := time.Now()
		s, _, err := buildSim(opts, spec)
		resume()
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		s.Close()
	}
	res.set("setup_s", median(setups), "s")
	res.set("live_heap_mb", first.heapMB, "MB")
	for i, name := range simNames {
		res.set(name, first.sim[i], simUnits[i])
	}
	return res, nil
}
