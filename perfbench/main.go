// Command perfbench is the repository's benchmark. It runs one of two
// workloads, checks the system's outputs, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON object
// on the last line of standard output:
//
//	go run . -workload ycsb_b -seed 1 -seconds 10 -trace 0
//
// Each workload is one YCSB mix driven twice: on the real clock over
// loopback TCP against a replica set and wire server hosted in this
// process, and in virtual time through the paper's congested modeled
// cluster with the Decongestant balancer. Every workload prints every
// metric. See README.md for why each workload exists and what every
// metric means. A run whose checks fail prints no metrics and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"decongestant/internal/workload/ycsb"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's command-line settings plus the workload sizes
// (which tests shrink).
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
}

// sizes scale a workload. fullSizes is what the command line runs.
type sizes struct {
	records    int64 // real-clock record count
	setups     int   // deployments built per run; setup_s is their median
	simRecords int64 // virtual-time record count
	simClients int
	simWarm    float64 // virtual seconds excluded from measurement
	simMeasure float64 // virtual seconds measured
	rungCalls  int     // direct calls per rung batch in the traced run
}

func fullSizes() sizes {
	return sizes{
		records:    50_000,
		setups:     3,
		simRecords: 10_000,
		simClients: 180,
		simWarm:    15,
		simMeasure: 44,
		rungCalls:  20_000,
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run returns: the figures to print plus
// the op accounting and any failed checks.
type result struct {
	attempted int64
	failed    int64
	metrics   map[string]metric
	// failures lists every check that did not hold; a non-empty list
	// suppresses the metrics and makes the run exit non-zero.
	failures []string
	// report holds human-readable lines (diagnostics, the traced run's
	// self-time tables) printed before the JSON line.
	report []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) say(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// workloadDef is one YCSB mix and the real-clock traffic that drives
// it. The virtual-time part runs spec's mix as YCSB's own pool does.
type workloadDef struct {
	spec ycsb.Spec
	mix  wireMix
}

var workloads = map[string]workloadDef{
	// Read-heavy: on the real clock the reads go to the primary with
	// uniform keys, so nearly all the time is the networked read path.
	"ycsb_b": {ycsb.WorkloadB(), wireMix{readFrac: 0.95, uniform: true}},
	// Update-heavy: half the reads go to secondaries, where they contend
	// with batch apply.
	"ycsb_a": {ycsb.WorkloadA(), wireMix{readFrac: 0.5, secondaryFrac: 0.5}},
}

// runWorkload runs the workload's real-clock part, then its
// virtual-time part, and merges the two into one result.
func runWorkload(opts options) (*result, error) {
	w := workloads[opts.workload]
	res, err := runWireWorkload(opts, w.spec, w.mix)
	if err != nil || len(res.failures) > 0 {
		return res, err
	}
	simRes, err := runCongested(opts, w.spec)
	if err != nil {
		return nil, err
	}
	res.attempted += simRes.attempted
	res.failed += simRes.failed
	res.failures = append(res.failures, simRes.failures...)
	res.report = append(res.report, simRes.report...)
	for name, m := range simRes.metrics {
		if prev, ok := res.metrics[name]; ok {
			// Set-up time, live heap and error counts are the two
			// deployments' together; no other name is reported twice.
			if !summed[name] {
				return nil, fmt.Errorf("both parts report %s", name)
			}
			m.Value += prev.Value
		}
		res.metrics[name] = m
	}
	return res, nil
}

var summed = map[string]bool{
	"setup_s": true, "live_heap_mb": true,
	"driver.fallback_retries": true, "cluster.apply_errors": true, "cluster.resyncs": true,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := options{size: fullSizes()}
	fs.StringVar(&opts.workload, "workload", "", "workload to run: ycsb_b or ycsb_a")
	fs.Int64Var(&opts.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&opts.seconds, "seconds", 10, "wall-clock seconds to measure")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[opts.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", opts.workload, strings.Join(names, ", "))
		return 2
	}
	if opts.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	opts.trace = *traceFlag == 1
	// One P. On a small shared VM the cross-core wakeups and idle
	// spinning of a multi-P runtime, multiplied by hypervisor steal,
	// moved CPU per op by 25% from run to run; with one P the figures
	// measure the work on the path and hold still.
	runtime.GOMAXPROCS(1)

	res, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	return report(opts, res, stdout, stderr)
}

// report prints a run's report lines and, when every check held and
// exactly the named metrics were measured, the result line.
// It returns the process exit code.
func report(opts options, res *result, stdout, stderr io.Writer) int {
	for _, line := range res.report {
		fmt.Fprintln(stdout, line)
	}
	if res.failed > 0 {
		res.fail("%d of %d operations failed", res.failed, res.attempted)
	}
	if res.attempted < 1 {
		res.fail("no operations attempted")
	}
	want := expectedMetrics(opts.trace)
	for _, name := range want {
		if _, ok := res.metrics[name]; !ok && len(res.failures) == 0 {
			res.fail("metric %s was not measured", name)
		}
	}
	if len(res.metrics) != len(want) && len(res.failures) == 0 {
		res.fail("measured %d metrics, the benchmark names %d", len(res.metrics), len(want))
	}
	if len(res.failures) > 0 {
		for _, f := range res.failures {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", opts.workload, f)
		}
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// The metrics every run prints: the end-to-end ones untraced, the
// per-layer ones traced.
var (
	endToEnd = append([]string{"setup_s", "cpu_us_per_op", "live_heap_mb", "read_p50_us", "write_p50_us"}, simNames[:]...)
	perLayer = []string{
		"core.balance_fraction_pct", "core.secondary_read_pct", "core.gate_trips", "core.status_polls_per_s",
		"driver.self_us", "driver.selections_per_op", "driver.fallback_retries",
		"wire.client_read_us", "wire.client_write_us", "wire.server_read_us", "wire.server_write_us",
		"wire.transit_read_us", "wire.bytes_per_op", "wire.frames_per_op", "wire.requests_shed",
		"cluster.exec_read_us", "cluster.exec_write_us", "cluster.queue_wait_p99_ms",
		"cluster.txns_per_group_commit", "cluster.entries_per_getmore", "cluster.catchup_ms",
		"cluster.repl_lag_ms", "cluster.apply_errors", "cluster.resyncs",
		"storage.find_by_id_ns", "storage.find_by_id_encoded_ns", "storage.apply_set_ns",
		"runtime.alloc_bytes_per_op", "runtime.allocs_per_op", "runtime.gc_cycles_per_kop",
		"sim.cpu_us_per_op", "trace.overhead_pct", "trace.read_p50_overhead_pct",
	}
)

// expectedMetrics returns, sorted, the metrics a run prints.
func expectedMetrics(trace bool) []string {
	names := endToEnd
	if trace {
		names = perLayer
	}
	names = append([]string(nil), names...)
	sort.Strings(names)
	return names
}
