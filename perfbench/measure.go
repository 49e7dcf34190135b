package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is one reading of the host's aggregate CPU counters from
// /proc/stat, in clock ticks. ok is false where the file is absent.
type hostCPU struct {
	steal, total uint64
	ok           bool
}

func readHostCPU() hostCPU {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostCPU{}
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	h.ok = true
	return h
}

// stealPct is the share of host CPU time stolen by the hypervisor
// between two readings, or -1 when it cannot be read.
func stealPct(a, b hostCPU) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// window snapshots the process-wide costs at the edges of a measured
// window.
type window struct {
	wall time.Time
	cpu  time.Duration
	host hostCPU
	mem  runtime.MemStats
}

func openWindow() window {
	w := window{wall: time.Now(), cpu: cpuTime(), host: readHostCPU()}
	runtime.ReadMemStats(&w.mem)
	return w
}

// windowCost is the difference between two window edges.
type windowCost struct {
	wall, cpu  time.Duration
	steal      float64
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	// cpuPerOpUS is the median over the window's sub-windows of CPU
	// time per completed operation, in microseconds.
	cpuPerOpUS float64
}

func closeWindow(open window) windowCost {
	end := openWindow()
	return windowCost{
		wall:       end.wall.Sub(open.wall),
		cpu:        end.cpu - open.cpu,
		steal:      stealPct(open.host, end.host),
		allocBytes: end.mem.TotalAlloc - open.mem.TotalAlloc,
		allocs:     end.mem.Mallocs - open.mem.Mallocs,
		gcCycles:   end.mem.NumGC - open.mem.NumGC,
	}
}

// pauseGC collects garbage and then stops the collector until the
// returned function is called, with a memory limit 2 GiB above the live
// heap as a backstop. Set-ups and real-clock windows run with the
// collector paused: over the hundreds of megabytes of loaded records a
// cycle takes the one P for seconds, and whether a 10-second window
// held one cycle or two (or a set-up ended just before or after one)
// moved CPU per op, the latency medians and set-up time by 15% or more
// between runs. What a window allocates is still reported per
// operation.
func pauseGC() (resume func()) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pct := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(int64(ms.HeapAlloc) + 2<<30)
	return func() {
		debug.SetGCPercent(pct)
		debug.SetMemoryLimit(limit)
	}
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setRuntimeMetrics reports the Go runtime's allocation per completed
// operation over a window.
func setRuntimeMetrics(r *result, c windowCost, ops int64) {
	if ops < 1 {
		ops = 1
	}
	r.set("runtime.alloc_bytes_per_op", float64(c.allocBytes)/float64(ops), "B")
	r.set("runtime.allocs_per_op", float64(c.allocs)/float64(ops), "count")
}

// percentile returns the q-quantile (nearest rank) of the samples; it
// sorts them in place. An empty sample gives 0.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	idx := int(q*float64(len(samples))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(samples) {
		idx = len(samples) - 1
	}
	return samples[idx]
}

// beyond counts the samples ranked above the q-quantile's rank — the
// support a reported percentile has.
func beyond(samples []time.Duration, q float64) int {
	idx := int(q*float64(len(samples))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	return max(len(samples)-idx-1, 0)
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSample is one reading of the process CPU clock, the completed
// operation count and the host counters.
type cpuSample struct {
	cpu  time.Duration
	ops  int64
	host hostCPU
}

// cpuSampler reads cpuSample every interval until finish.
type cpuSampler struct {
	ops     *atomic.Int64
	stop    chan struct{}
	done    chan struct{}
	samples []cpuSample
}

func startCPUSampler(ops *atomic.Int64, every time.Duration) *cpuSampler {
	s := &cpuSampler{ops: ops, stop: make(chan struct{}), done: make(chan struct{})}
	s.take()
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.take()
			}
		}
	}()
	return s
}

func (s *cpuSampler) take() {
	s.samples = append(s.samples, cpuSample{cpu: cpuTime(), ops: s.ops.Load(), host: readHostCPU()})
}

// finish stops the sampler, takes a last reading and returns them all.
func (s *cpuSampler) finish() []cpuSample {
	close(s.stop)
	<-s.done
	s.take()
	return s.samples
}

// medianCPUPerOp is the median, over the intervals between successive
// samples, of process CPU time per completed operation in microseconds.
// A garbage-collection cycle or a burst of host interference inflates
// the few intervals it falls in; the median keeps the run's figure from
// depending on whether the window happened to contain one.
func medianCPUPerOp(samples []cpuSample) float64 {
	var per []float64
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if n := b.ops - a.ops; n > 0 {
			per = append(per, us(b.cpu-a.cpu)/float64(n))
		}
	}
	return median(per)
}
