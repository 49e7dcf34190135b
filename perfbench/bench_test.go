package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/workload/ycsb"
)

// tinySizes shrinks every workload so a run takes a few seconds.
func tinySizes() sizes {
	return sizes{
		records:    2_000,
		setups:     2,
		simRecords: 1_000,
		simClients: 40,
		simWarm:    4,
		simMeasure: 25,
		rungCalls:  500,
	}
}

func tinyOptions(workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 0.3, trace: trace, size: tinySizes()}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestDeclaredMetricsMatch checks that BENCHMARK.json declares exactly
// the metrics the workloads print.
func TestDeclaredMetricsMatch(t *testing.T) {
	e2e, layer := declared(t)
	for trace, decl := range map[bool]map[string]string{false: e2e, true: layer} {
		printed := map[string]bool{}
		for _, m := range expectedMetrics(trace) {
			printed[m] = true
			if _, ok := decl[m]; !ok {
				t.Errorf("trace=%v prints %s, which BENCHMARK.json does not declare", trace, m)
			}
		}
		for m := range decl {
			if !printed[m] {
				t.Errorf("BENCHMARK.json declares %s, which trace=%v does not print", m, trace)
			}
		}
	}
}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced, and checks that it passes its checks and prints exactly the
// named metrics, each with its declared unit and never zero where the
// metric is a time or a rate.
func TestSmokeEveryWorkload(t *testing.T) {
	e2e, layer := declared(t)
	for _, name := range []string{"ycsb_b", "ycsb_a"} {
		for _, trace := range []bool{false, true} {
			units := e2e
			if trace {
				units = layer
			}
			opts := tinyOptions(name, trace)
			res, err := runWorkload(opts)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out, errOut bytes.Buffer
			if code := report(opts, res, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var got struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, trace, err)
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, got.Correct, got.Attempted, got.Failed)
			}
			want := expectedMetrics(trace)
			var names []string
			for n, m := range got.Metrics {
				names = append(names, n)
				if m.Unit == "" || m.Unit != units[n] {
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", name, trace, n, m.Unit, units[n])
				}
				// The tiny simulation is not congested: its secondaries
				// keep up, so it sees no staleness or lag.
				tinyZero := n == "sim_staleness_p95_ms" || n == "cluster.repl_lag_ms"
				if m.Value == 0 && m.Unit != "count" && m.Unit != "%" && !tinyZero {
					t.Errorf("%s trace=%v: %s is 0", name, trace, n)
				}
			}
			sort.Strings(names)
			if strings.Join(names, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", name, trace, names, want)
			}
			for _, op := range []string{"read", "write"} {
				if trace && !strings.Contains(out.String(), "where the microseconds go: "+op) {
					t.Errorf("%s: traced run printed no %s self-time table", name, op)
				}
			}
		}
	}
}

// TestCongestedIsDeterministic checks that two runs with one seed give
// bit-identical sim_* values.
func TestCongestedIsDeterministic(t *testing.T) {
	opts := tinyOptions("ycsb_b", false)
	a, err := runCongested(opts, ycsb.WorkloadB())
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCongested(opts, ycsb.WorkloadB())
	if err != nil {
		t.Fatal(err)
	}
	if a.metrics["sim_read_ops_per_s"].Value == 0 {
		t.Fatal("no reads simulated")
	}
	for _, name := range simNames {
		if a.metrics[name].Value != b.metrics[name].Value {
			t.Errorf("%s: %v then %v", name, a.metrics[name].Value, b.metrics[name].Value)
		}
	}
}

// TestShimKeepsCallCounts drives one deterministic YCSB-A sequence
// through the driver over the bare wire client and again over the
// tracing shim, and checks that the server saw the same requests, the
// driver made the same selections, and the shim forwarded exactly one
// body call per operation.
func TestShimKeepsCallCounts(t *testing.T) {
	spec := ycsb.WorkloadA()
	spec.RecordCount = 500
	d, err := buildWireDeploy(5, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mix := wireMix{readFrac: 0.5, secondaryFrac: 0.5}
	const ops = 400
	drive := func(exec executors, traced bool, reg *obs.Registry) (server, drv obs.Snapshot, before obs.Snapshot, drvBefore obs.Snapshot, st []*clientStats) {
		before, drvBefore = d.rs.Metrics().Snapshot(), reg.Snapshot()
		st = d.runPhase(mix, phase{
			name: "count", exec: exec, clients: 1, until: time.Now().Add(time.Hour), maxOps: ops,
			traced: traced, seed: 11, acked: []map[int64]string{{}},
		})
		return d.rs.Metrics().Snapshot(), reg.Snapshot(), before, drvBefore, st
	}
	plain := driver.NewClient(d.env, d.wc)
	shim := &tracedConn{wc: d.wc}
	traced := driver.NewClient(d.env, shim)
	s1, v1, b1, db1, st1 := drive(fixedExecutors(plain), false, plain.Metrics())
	s2, v2, b2, db2, st2 := drive(tracingExecutors(traced), true, traced.Metrics())

	for _, st := range [][]*clientStats{st1, st2} {
		if st[0].failed != 0 || st[0].attempted != ops {
			t.Fatalf("attempted %d failed %d (%v)", st[0].attempted, st[0].failed, st[0].firstErr)
		}
	}
	for _, op := range []string{"find_by_id", "find_many", "write_batch", "topology", "status", "ping"} {
		name := obs.Name("wire.requests", "op", op)
		if a, b := counterDelta(b1, s1, name), counterDelta(b2, s2, name); a != b && op != "topology" {
			t.Errorf("%s: %v requests untraced, %v traced", name, a, b)
		}
	}
	for pref := driver.Primary; pref <= driver.Linearizable; pref++ {
		name := obs.Name("driver.selections", "pref", pref.String())
		if a, b := counterDelta(db1, v1, name), counterDelta(db2, v2, name); a != b {
			t.Errorf("%s: %v untraced, %v traced", name, a, b)
		}
	}
	reads, writes := int64(len(st2[0].reads)), int64(len(st2[0].writes))
	for m := 0; m < nMethods; m++ {
		got := shim.calls[m].Load()
		var want int64
		switch m {
		case mExecRead:
			want = reads
		case mExecWrite:
			want = writes
		case mPrimaryID, mNodeIDs, mTracer:
			continue // topology lookups, not request-carrying calls
		}
		if got != want {
			t.Errorf("shim method %d called %d times, want %d", m, got, want)
		}
	}
	if n := len(st2[0].log.spans); int64(n) != 3*(reads+writes) {
		t.Errorf("%d spans for %d ops, want three per op", n, reads+writes)
	}
}
