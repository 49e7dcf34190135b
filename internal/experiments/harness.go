// Package experiments reproduces every table and figure of the paper's
// evaluation (§4) on the simulated replica set: the three systems
// compared are the two hard-coded baselines (Primary, Secondary) and
// Decongestant. Each FigN function builds the cluster, loads the
// workload, runs the scenario in virtual time, and returns structured
// rows matching what the paper plots.
package experiments

import (
	"sync"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/metrics"
	"decongestant/internal/obs"
	"decongestant/internal/sim"
	"decongestant/internal/workload"
	"decongestant/internal/workload/sworkload"
)

// SystemKind selects which of the paper's three systems runs.
type SystemKind int

const (
	// SysPrimary hard-codes Read Preference primary (baseline).
	SysPrimary SystemKind = iota
	// SysSecondary hard-codes Read Preference secondary (baseline).
	SysSecondary
	// SysDecongestant runs the Read Balancer + Router.
	SysDecongestant
)

func (k SystemKind) String() string {
	switch k {
	case SysPrimary:
		return "Primary"
	case SysSecondary:
		return "Secondary"
	default:
		return "Decongestant"
	}
}

// AllSystems lists the systems in the order the figures present them.
var AllSystems = []SystemKind{SysPrimary, SysSecondary, SysDecongestant}

// ExpClusterConfig is the cluster calibration shared by all
// experiments: a 3-node, equal-capacity replica set whose closed-loop
// saturation knee sits in the few-tens-of-clients range, like the
// paper's r4.2xlarge nodes do under its client counts.
func ExpClusterConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.CPUSlots = 24
	cfg.ReadCost = 3 * time.Millisecond
	cfg.WriteCost = 7 * time.Millisecond
	cfg.ApplyCost = 150 * time.Microsecond
	cfg.GetMoreCost = 1 * time.Millisecond
	cfg.StatusCost = 500 * time.Microsecond
	cfg.CheckpointInterval = 60 * time.Second
	cfg.CheckpointMinDuration = time.Second
	cfg.CheckpointPerMB = 250 * time.Millisecond
	cfg.CheckpointMaxDuration = 30 * time.Second
	cfg.FlowControlLagSecs = 15
	cfg.FlowControlDelay = 3 * time.Millisecond
	cfg.OplogCap = 200_000 // bounds per-node memory on long runs
	return cfg
}

// Setup is one assembled system under test.
type Setup struct {
	Env    *sim.VirtualEnv
	RS     *cluster.ReplicaSet
	Client *driver.Client
	Exec   workload.Executor
	Core   *core.System // nil for the baselines
	SW     *sworkload.S // nil unless attached
}

// Options configure a setup.
type Options struct {
	Seed       int64
	Cluster    cluster.Config
	Params     core.Params // Decongestant parameters
	AttachS    bool
	SWOpts     sworkload.Options
	CustomCore func(*core.System) // post-construction hook
}

// NewSetup builds a cluster and the chosen system over it.
func NewSetup(kind SystemKind, opts Options) *Setup {
	env := sim.NewEnv(opts.Seed)
	rs := cluster.New(env, opts.Cluster)
	conn := driver.WrapCluster(rs)
	s := &Setup{Env: env, RS: rs}
	switch kind {
	case SysPrimary, SysSecondary:
		// Baselines run without any Read Balancer or its probing
		// overheads (§4.1.3).
		s.Client = driver.NewClient(env, conn)
		pref := driver.Primary
		if kind == SysSecondary {
			pref = driver.Secondary
		}
		s.Client.StartMonitor(env, 10*time.Second)
		s.Exec = workload.FixedPref{Client: s.Client, Pref: pref}
	case SysDecongestant:
		s.Core = core.NewSystem(env, conn, opts.Params)
		if opts.CustomCore != nil {
			opts.CustomCore(s.Core)
		}
		s.Client = s.Core.Client
		s.Client.StartMonitor(env, 10*time.Second)
		s.Exec = workload.RouterExec{Router: s.Core.Router}
	}
	if opts.AttachS {
		swOpts := opts.SWOpts
		if kind == SysDecongestant && swOpts.ProbeSecondary == nil {
			bal := s.Core.Balancer
			swOpts.ProbeSecondary = func() bool { return bal.Fraction() > 0 }
		}
		if kind == SysPrimary && swOpts.ProbeSecondary == nil {
			// The paper's variation: when the application never uses
			// secondaries, the S probe's second read also goes to the
			// primary.
			swOpts.ProbeSecondary = func() bool { return false }
		}
		s.SW = sworkload.New(env, s.Client, swOpts)
		s.SW.Start()
	}
	return s
}

// Close shuts the environment down.
func (s *Setup) Close() { s.Env.Shutdown() }

// Metrics returns the observability snapshot for the whole system
// under test. In-process the driver and Read Balancer register their
// instruments in the cluster's registry, so one snapshot covers every
// layer: cluster.*, driver.* and balancer.*.
func (s *Setup) Metrics() obs.Snapshot { return s.RS.Metrics().Snapshot() }

// Collector implements workload.Observer, bucketing reads (optionally
// filtered to one kind, e.g. StockLevel) into fixed windows with
// throughput, latency percentiles and the measured percentage of
// secondary-routed reads — the three panels of Figures 2-5.
type Collector struct {
	window    time.Duration
	kindMatch string // "" matches every read kind

	mu        sync.Mutex
	reads     *metrics.Series
	writes    *metrics.Series
	secPerWin []int64
	totPerWin []int64
}

// NewCollector creates a collector with the given window width. If
// kind is non-empty only reads of that kind are counted.
func NewCollector(window time.Duration, kind string) *Collector {
	return &Collector{
		window:    window,
		kindMatch: kind,
		reads:     metrics.NewSeries(window),
		writes:    metrics.NewSeries(window),
	}
}

// ObserveRead implements workload.Observer.
func (c *Collector) ObserveRead(at time.Duration, pref driver.ReadPref, lat time.Duration, kind string) {
	if c.kindMatch != "" && kind != c.kindMatch {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads.Observe(at, lat)
	idx := int(at / c.window)
	for len(c.totPerWin) <= idx {
		c.totPerWin = append(c.totPerWin, 0)
		c.secPerWin = append(c.secPerWin, 0)
	}
	c.totPerWin[idx]++
	if pref == driver.Secondary {
		c.secPerWin[idx]++
	}
}

// ObserveWrite implements workload.Observer.
func (c *Collector) ObserveWrite(at time.Duration, lat time.Duration, kind string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes.Observe(at, lat)
}

// Row is one reporting window of one system's read metrics.
type Row struct {
	Start        time.Duration
	Throughput   float64 // reads per second
	P80          time.Duration
	PctSecondary float64 // measured percentage of secondary reads
}

// Rows returns one Row per window.
func (c *Collector) Rows() []Row {
	c.mu.Lock()
	defer c.mu.Unlock()
	snaps := c.reads.Snapshot()
	rows := make([]Row, len(snaps))
	for i, w := range snaps {
		r := Row{Start: w.Start, Throughput: w.Throughput, P80: w.P80}
		if i < len(c.totPerWin) && c.totPerWin[i] > 0 {
			r.PctSecondary = 100 * float64(c.secPerWin[i]) / float64(c.totPerWin[i])
		}
		rows[i] = r
	}
	return rows
}

// Aggregate summarizes all windows starting at or after `from` —
// steady-state numbers with the warm-up excluded (§4.1.6).
func (c *Collector) Aggregate(from time.Duration) (throughput float64, p80 time.Duration, pctSecondary float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := c.reads.Aggregate(from)
	var windows int
	var sec, tot int64
	for i := range c.totPerWin {
		if time.Duration(i)*c.window < from {
			continue
		}
		windows++
		sec += c.secPerWin[i]
		tot += c.totPerWin[i]
	}
	if windows > 0 {
		throughput = float64(agg.Count()) / (float64(windows) * c.window.Seconds())
	}
	p80 = agg.Percentile(0.80)
	if tot > 0 {
		pctSecondary = 100 * float64(sec) / float64(tot)
	}
	return throughput, p80, pctSecondary
}

// TimeSeries is the result of a time-varying experiment: per-system
// windowed rows plus annotations.
type TimeSeries struct {
	Title  string
	Window time.Duration
	Rows   map[string][]Row
	Events []string
	// Extra carries per-system auxiliary series (staleness, gate
	// trips) keyed by a label.
	Extra map[string][]XY
	// Notes are printed after the rows (e.g. each system's transaction
	// failure share).
	Notes []string
}

// XY is one point of an auxiliary series.
type XY struct {
	X float64
	Y float64
}

// SweepPoint is one x-axis position of a sweep experiment.
type SweepPoint struct {
	X      float64 // e.g. number of clients
	Values map[string]float64
}

// Sweep is the result of a parameter sweep: multiple named series over
// a shared x axis.
type Sweep struct {
	Title  string
	XLabel string
	Points []SweepPoint
}
