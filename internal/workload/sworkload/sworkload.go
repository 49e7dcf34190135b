// Package sworkload implements the paper's S workload (§4.1.5): a
// writer that stamps the current time into a dedicated probe document
// at high frequency, and a reader that periodically probes the same
// document on the primary and on a secondary and compares the returned
// timestamps. The difference is the data staleness actually seen by a
// client — the ground truth the paper validates Decongestant's
// serverStatus-based estimates against (Figures 8-10).
package sworkload

import (
	"sync"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// Collection and document id of the probe cell.
const (
	Collection = "sprobe"
	CellID     = "cell"
)

// Sample is one reader probe.
type Sample struct {
	At time.Duration
	// Staleness is primary timestamp minus secondary timestamp at the
	// probe, clamped at zero.
	Staleness time.Duration
	// UsedSecondary is false when the probe's second read was sent to
	// the primary instead (the paper's variation for phases where the
	// application is not using secondaries at all).
	UsedSecondary bool
}

// Options configures the S workload.
type Options struct {
	// WriterInterval is the stamp period; it must be at least as fast
	// as the reader probes (default 50 ms).
	WriterInterval time.Duration
	// ProbeInterval is the reader period (default 250 ms).
	ProbeInterval time.Duration
	// ProbeSecondary, when non-nil, is consulted before each probe;
	// returning false redirects the probe's second read to the primary
	// (clients see no staleness while the application avoids
	// secondaries). Wire it to Decongestant's Balancer.Fraction.
	ProbeSecondary func() bool
}

func (o Options) withDefaults() Options {
	if o.WriterInterval == 0 {
		o.WriterInterval = 50 * time.Millisecond
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	return o
}

// S is a running S workload instance.
type S struct {
	env    sim.Env
	client *driver.Client
	opts   Options

	mu      sync.Mutex
	samples []Sample
	writes  int64
}

// New creates an S workload over the given client; Start launches its
// writer and reader processes.
func New(env sim.Env, client *driver.Client, opts Options) *S {
	return &S{env: env, client: client, opts: opts.withDefaults()}
}

// Start launches the writer and reader.
func (s *S) Start() {
	s.env.Spawn("sworkload/writer", s.writerLoop)
	s.env.Spawn("sworkload/reader", s.readerLoop)
}

func (s *S) writerLoop(p sim.Proc) {
	for {
		now := int64(p.Now())
		_, _, err := s.client.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Set(Collection, CellID, storage.D{"ts": now})
		})
		if err == nil {
			s.mu.Lock()
			s.writes++
			s.mu.Unlock()
		}
		p.Sleep(s.opts.WriterInterval)
	}
}

func (s *S) readerLoop(p sim.Proc) {
	readCell := func(pref driver.ReadPref) (int64, bool) {
		res, _, _, err := s.client.Read(p, driver.ReadOptions{Pref: pref}, func(v cluster.ReadView) (any, error) {
			d, ok := v.FindByID(Collection, CellID)
			if !ok {
				// Never replicated: timestamp 0 makes the staleness
				// read as the full time since the run started.
				return int64(0), nil
			}
			return d.Int("ts"), nil
		})
		if err != nil {
			return 0, false
		}
		return res.(int64), true
	}
	for {
		p.Sleep(s.opts.ProbeInterval)
		useSecondary := s.opts.ProbeSecondary == nil || s.opts.ProbeSecondary()
		primTS, ok := readCell(driver.Primary)
		if !ok {
			continue
		}
		secPref := driver.Primary
		if useSecondary {
			secPref = driver.Secondary
		}
		secTS, ok := readCell(secPref)
		if !ok {
			continue
		}
		staleness := time.Duration(primTS - secTS)
		if staleness < 0 {
			staleness = 0
		}
		s.mu.Lock()
		s.samples = append(s.samples, Sample{At: p.Now(), Staleness: staleness, UsedSecondary: useSecondary})
		s.mu.Unlock()
	}
}

// Samples returns a copy of the probes recorded so far.
func (s *S) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// Writes returns the number of successful stamp writes.
func (s *S) Writes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// StalenessPercentile returns the q-percentile of client-observed
// staleness over samples taken at or after `from` (warm-up exclusion).
func (s *S) StalenessPercentile(q float64, from time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var vals []time.Duration
	for _, smp := range s.samples {
		if smp.At >= from {
			vals = append(vals, smp.Staleness)
		}
	}
	return obs.PercentileOf(vals, q)
}

// MaxStaleness returns the largest observed staleness at or after
// `from`.
func (s *S) MaxStaleness(from time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var maxS time.Duration
	for _, smp := range s.samples {
		if smp.At >= from && smp.Staleness > maxS {
			maxS = smp.Staleness
		}
	}
	return maxS
}
