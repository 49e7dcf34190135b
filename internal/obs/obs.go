// Package obs is the unified observability registry: goroutine-safe
// named instruments (monotone counters, gauges, latency histograms)
// that every layer of the stack — cluster nodes, the driver, the Read
// Balancer, and the wire server — registers into, plus labeled
// snapshots with text and JSON exporters so the same telemetry can be
// read in-process, logged periodically, or fetched over TCP via the
// wire protocol's `metrics` command.
//
// Counters and gauges are lock-free (sync/atomic). Histogram is the
// project's one log-bucketed latency histogram, behind one mutex; the
// experiment harness builds its per-window series from it, and
// PercentileOf is the exact sample percentile the Read Balancer's P50
// signal uses. Instruments are
// get-or-create by name, so independent components referring to the
// same name share one instrument. Labels are encoded into the name
// with Name, e.g. Name("cluster.reads", "node", "0") —
// "cluster.reads{node=0}" — keeping lookups a single map access.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotone event counter, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds n events. A nil counter is a no-op, so callers never need
// to guard instrument lookups.
func (c *Counter) Inc(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the count so far (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level, safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set records the current level. A nil gauge is a no-op.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the level by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Instrument kinds inside a snapshot.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Instrument is one named reading inside a snapshot.
type Instrument struct {
	Name  string     `json:"name"`
	Kind  string     `json:"kind"`
	Count uint64     `json:"value,omitempty"` // counter total
	Value int64      `json:"level,omitempty"` // gauge level
	Hist  *HistStats `json:"hist,omitempty"`
}

// Snapshot is a point-in-time reading of every instrument, sorted by
// name. It is plain data, JSON-round-trippable for the wire protocol.
//
// Snapshots built by this package carry a lazily built name index, so
// repeated Get/CounterValue lookups — the export and assertion paths
// run one per instrument — stay O(1) instead of rescanning the
// instrument list. The index is shared by copies of the snapshot and
// built at most once. Snapshots decoded from JSON have no index and
// fall back to a linear scan.
type Snapshot struct {
	Instruments []Instrument `json:"instruments"`

	idx *snapIndex
}

// snapIndex is the lazily built name → position index of a snapshot.
// It lives behind a pointer so value copies of a Snapshot share one
// index, and sync.Once makes the lazy build race-free.
type snapIndex struct {
	once sync.Once
	m    map[string]int
}

// Registry holds named instruments. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func()
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// RegisterCollector registers fn to run at the start of every
// Snapshot call, before instruments are read. Collectors compute
// scrape-time instrument families — queue depths, replication lag,
// collection statistics, process memory — that would be wasteful to
// maintain on the hot paths; they typically Set gauges in this same
// registry. Collectors run outside the registry lock (they may create
// instruments) and must not block.
func (r *Registry) RegisterCollector(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (whose methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot reads every instrument. The registry lock is held only
// while collecting the instrument pointers, not while summarizing, so
// a snapshot never stalls hot-path increments for long.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	collectors := r.collectors
	r.mu.Unlock()
	// Scrape-time collectors refresh their gauge families before the
	// instrument maps are copied; they may get-or-create instruments,
	// so they run outside the lock.
	for _, fn := range collectors {
		fn()
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	var s Snapshot
	for name, c := range counters {
		s.Instruments = append(s.Instruments, Instrument{Name: name, Kind: KindCounter, Count: c.Value()})
	}
	for name, g := range gauges {
		s.Instruments = append(s.Instruments, Instrument{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	for name, h := range hists {
		st := h.Stats()
		s.Instruments = append(s.Instruments, Instrument{Name: name, Kind: KindHistogram, Hist: &st})
	}
	s.sort()
	return s
}

func (s *Snapshot) sort() {
	sort.Slice(s.Instruments, func(i, j int) bool {
		return s.Instruments[i].Name < s.Instruments[j].Name
	})
	// The instrument set is final from here on; hand out a fresh lazy
	// index (building it eagerly would charge every snapshot for the
	// lookups only some of them perform).
	s.idx = &snapIndex{}
}

// Name formats an instrument name with labels: Name("x", "a", "1",
// "b", "2") is "x{a=1,b=2}". Labels are sorted by key so the same
// label set always produces the same name. An odd trailing key is
// ignored.
func Name(base string, kv ...string) string {
	n := len(kv) / 2
	if n == 0 {
		return base
	}
	type pair struct{ k, v string }
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{kv[2*i], kv[2*i+1]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Get returns the named instrument reading, if present. Snapshots
// built by this package answer through a name index built on first
// lookup; snapshots assembled by hand or decoded from JSON fall back
// to a linear scan.
func (s Snapshot) Get(name string) (Instrument, bool) {
	if ix := s.idx; ix != nil {
		ix.once.Do(func() {
			m := make(map[string]int, len(s.Instruments))
			for i := range s.Instruments {
				m[s.Instruments[i].Name] = i
			}
			ix.m = m
		})
		i, ok := ix.m[name]
		if !ok {
			return Instrument{}, false
		}
		return s.Instruments[i], true
	}
	for _, in := range s.Instruments {
		if in.Name == name {
			return in, true
		}
	}
	return Instrument{}, false
}

// CounterValue returns the named counter's total (0 when absent).
func (s Snapshot) CounterValue(name string) uint64 {
	in, _ := s.Get(name)
	return in.Count
}

// GaugeValue returns the named gauge's level (0 when absent).
func (s Snapshot) GaugeValue(name string) int64 {
	in, _ := s.Get(name)
	return in.Value
}

// Merge returns a snapshot containing s's instruments plus those of
// every other snapshot, re-sorted. Duplicate names are kept as-is
// (they can arise when a pushed client snapshot reuses a server-side
// name); consumers that need uniqueness should prefix sources.
func (s Snapshot) Merge(others ...Snapshot) Snapshot {
	out := Snapshot{Instruments: append([]Instrument(nil), s.Instruments...)}
	for _, o := range others {
		out.Instruments = append(out.Instruments, o.Instruments...)
	}
	out.sort()
	return out
}

// Prefixed returns a copy of the snapshot with every instrument name
// prefixed — used to namespace pushed client snapshots by source.
func (s Snapshot) Prefixed(prefix string) Snapshot {
	out := Snapshot{Instruments: make([]Instrument, len(s.Instruments)), idx: &snapIndex{}}
	for i, in := range s.Instruments {
		in.Name = prefix + in.Name
		out.Instruments[i] = in
	}
	return out
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Text renders the snapshot one instrument per line, the
// serverStatus-style human format logged by cmd/replsetd.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, in := range s.Instruments {
		switch in.Kind {
		case KindCounter:
			fmt.Fprintf(&b, "%-48s counter   %d\n", in.Name, in.Count)
		case KindGauge:
			fmt.Fprintf(&b, "%-48s gauge     %d\n", in.Name, in.Value)
		case KindHistogram:
			h := in.Hist
			if h == nil {
				h = &HistStats{}
			}
			fmt.Fprintf(&b, "%-48s histogram count=%d mean=%s p50=%s p80=%s p99=%s max=%s\n",
				in.Name, h.Count,
				formatDuration(h.Mean), formatDuration(h.P50),
				formatDuration(h.P80), formatDuration(h.P99),
				formatDuration(h.Max))
		}
	}
	return b.String()
}
