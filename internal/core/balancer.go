// Package core implements Decongestant's contribution: the Read
// Balancer of Algorithm 1 and the client-side Router that consults it.
//
// The Read Balancer periodically publishes a Balance Fraction — the
// probability that a client's next read is sent with Read Preference
// secondary. Every period it compares Server-Side Latency estimates
// (client-observed median latency minus median RTT, §3.3.1) between
// primary- and secondary-routed reads and moves the fraction toward
// the congested side's relief; a staleness gate polling serverStatus
// at the primary snaps the fraction to zero whenever any secondary's
// conservative staleness estimate exceeds the client-set bound
// (§3.3.2).
package core

import (
	"sync"
	"time"

	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/sim"
)

// Params are the Read Balancer's tuning constants. Defaults reproduce
// the paper's settings (§4.1.2).
type Params struct {
	// DeltaPct is the one-period change in Balance Fraction, in whole
	// percentage points (10). The controller works in integer percent,
	// as the paper's 10%-step algorithm does.
	DeltaPct int
	// LowBalPct / HighBalPct bound the non-zero Balance Fraction
	// (10 / 90) so both roles keep receiving probe traffic.
	LowBalPct  int
	HighBalPct int
	// HighRatio: latency ratio above which the primary is congested
	// and the fraction increases (1.30). LowRatio: ratio below which
	// the secondaries are congested and the fraction decreases (0.75).
	HighRatio float64
	LowRatio  float64
	// Period is the decision interval (10 s).
	Period time.Duration
	// RecentLen is how many past decisions are kept; when they are all
	// equal the balancer explores downward (4).
	RecentLen int
	// StaleBound is the client-set staleness limit in seconds. Zero
	// means the clients accept no stale reads at all: the fraction
	// stays 0 and every read goes to the primary (Algorithm 1 line 3).
	StaleBound int64
	// StalenessPoll is how often serverStatus is polled (1 s).
	StalenessPoll time.Duration
	// RTTPing is how often every node is pinged for RTT samples (1 s).
	RTTPing time.Duration
	// DecisionCap bounds the retained decision trace: only the most
	// recent DecisionCap period-end decisions are kept (512). Values
	// <= 0 take the default.
	DecisionCap int

	// Ablation switches (all false in the paper's system).

	// NoRTTSubtraction uses raw client latency instead of Server-Side
	// Latency (§3.3.1 ablation).
	NoRTTSubtraction bool
	// NoExploration disables the four-equal-periods downward probe.
	NoExploration bool
	// UseMean aggregates latencies with the mean instead of P50.
	UseMean bool
	// StalenessFromSecondary estimates staleness from a secondary's
	// serverStatus instead of the primary's (non-conservative, §2.3).
	StalenessFromSecondary bool
}

// DefaultParams returns the paper's configuration with a 10-second
// staleness bound (§4.1.2).
func DefaultParams() Params {
	return Params{
		DeltaPct:      10,
		LowBalPct:     10,
		HighBalPct:    90,
		HighRatio:     1.30,
		LowRatio:      0.75,
		Period:        10 * time.Second,
		RecentLen:     4,
		StaleBound:    10,
		StalenessPoll: time.Second,
		RTTPing:       time.Second,
		DecisionCap:   512,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.DeltaPct == 0 {
		p.DeltaPct = d.DeltaPct
	}
	if p.LowBalPct == 0 {
		p.LowBalPct = d.LowBalPct
	}
	if p.HighBalPct == 0 {
		p.HighBalPct = d.HighBalPct
	}
	if p.HighRatio == 0 {
		p.HighRatio = d.HighRatio
	}
	if p.LowRatio == 0 {
		p.LowRatio = d.LowRatio
	}
	if p.Period == 0 {
		p.Period = d.Period
	}
	if p.RecentLen == 0 {
		p.RecentLen = d.RecentLen
	}
	if p.StalenessPoll == 0 {
		p.StalenessPoll = d.StalenessPoll
	}
	if p.RTTPing == 0 {
		p.RTTPing = d.RTTPing
	}
	if p.DecisionCap <= 0 {
		p.DecisionCap = d.DecisionCap
	}
	return p
}

// Reason codes for one period-end decision — the structured trace the
// registry counts and Decisions exposes.
const (
	// ReasonIncrease: primary congested (ratio > HighRatio), fraction up.
	ReasonIncrease = "increase"
	// ReasonDecrease: secondaries congested (ratio < LowRatio), fraction down.
	ReasonDecrease = "decrease"
	// ReasonExplore: stable for RecentLen periods, probing downward.
	ReasonExplore = "explore"
	// ReasonHold: ratio in the dead band, or no samples this period.
	ReasonHold = "hold"
	// ReasonGated: the staleness gate forced the published fraction to
	// zero, regardless of what the controller computed.
	ReasonGated = "gated"
)

// Decision records one period-end outcome, for tests and plots.
type Decision struct {
	At        time.Duration
	Ratio     float64 // 0 when not computable this period
	NewBalPct int
	Published int    // percent actually published, after the staleness gate
	Reason    string // one of the Reason constants
	Gated     bool
}

// Stats counts Read Balancer activity.
type Stats struct {
	Periods      int
	Increases    int
	Decreases    int
	Explorations int
	Holds        int
	GateTrips    int // transitions into the gated state
	StatusPolls  int
	StatusSkips  int // serverStatus polls skipped (primary down / invalid)
	RTTSkips     int // RTT pings skipped (target down / failed probe)
}

// decisionRing is a fixed-capacity ring of the most recent decisions,
// replacing the previous unbounded slice that grew forever on long
// runs.
type decisionRing struct {
	buf  []Decision
	next int
	n    int
}

func newDecisionRing(capacity int) *decisionRing {
	return &decisionRing{buf: make([]Decision, capacity)}
}

func (r *decisionRing) add(d Decision) {
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// last returns the most recent decision, if any.
func (r *decisionRing) last() (Decision, bool) {
	if r.n == 0 {
		return Decision{}, false
	}
	i := r.next - 1
	if i < 0 {
		i += len(r.buf)
	}
	return r.buf[i], true
}

// list returns the retained decisions, oldest first.
func (r *decisionRing) list() []Decision {
	out := make([]Decision, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// maxRoleSamples bounds each of the shared per-role latency and RTT
// lists within one period. Once full, the newest sample overwrites
// the oldest, so a stalled period loop can no longer grow the lists
// without bound and the median reflects the freshest samples.
const maxRoleSamples = 8192

// sampleBuf is a fixed-capacity duration buffer with ring overwrite.
type sampleBuf struct {
	buf  []time.Duration
	next int // overwrite cursor, used once len(buf) == cap(buf)
}

func (s *sampleBuf) add(v time.Duration) {
	if len(s.buf) < maxRoleSamples {
		s.buf = append(s.buf, v)
		return
	}
	s.buf[s.next] = v
	s.next = (s.next + 1) % maxRoleSamples
}

// take returns the buffered samples and resets the buffer.
func (s *sampleBuf) take() []time.Duration {
	out := s.buf
	s.buf, s.next = nil, 0
	return out
}

// Balancer is the Read Balancer: one per client system, shared by all
// client processes on it.
type Balancer struct {
	env    sim.Env
	client *driver.Client
	params Params

	mu           sync.Mutex
	balPct       int   // published Balance Fraction, in percent
	recent       []int // last RecentLen decisions in percent (ungated)
	latPrimary   sampleBuf
	latSecondary sampleBuf
	rttPrimary   sampleBuf
	rttSecondary sampleBuf
	maxStale     int64
	gated        bool
	stats        Stats
	decisions    *decisionRing
	lastPollAt   time.Duration // env time of the last successful staleness poll; -1 before the first
	ewmaPrimary  time.Duration // smoothed client-observed latency per role,
	ewmaSecond   time.Duration // fed by Record; used by the SLA router

	// Registry instruments (atomic/self-locking; touched without b.mu).
	obsReasons   map[string]*obs.Counter
	obsFraction  *obs.Gauge
	obsStaleness *obs.Gauge
	obsGateTrips *obs.Counter
	obsPolls     *obs.Counter
	obsPollSkips *obs.Counter
	obsPollErrs  *obs.Counter
	obsRTTSkips  *obs.Counter
}

// NewBalancer creates a Read Balancer over the given client session.
// Call Start to launch its background processes.
func NewBalancer(env sim.Env, client *driver.Client, params Params) *Balancer {
	params = params.withDefaults()
	b := &Balancer{env: env, client: client, params: params}
	b.decisions = newDecisionRing(params.DecisionCap)
	b.balPct = params.LowBalPct
	b.recent = make([]int, params.RecentLen)
	for i := range b.recent {
		b.recent[i] = params.LowBalPct
	}
	if params.StaleBound == 0 {
		// Clients tolerate no staleness: never use secondaries.
		b.gated = true
		b.balPct = 0
	}
	reg := client.Metrics()
	b.obsReasons = make(map[string]*obs.Counter)
	for _, reason := range []string{ReasonIncrease, ReasonDecrease, ReasonExplore, ReasonHold, ReasonGated} {
		b.obsReasons[reason] = reg.Counter(obs.Name("balancer.decisions", "reason", reason))
	}
	b.obsFraction = reg.Gauge("balancer.fraction_pct")
	b.obsStaleness = reg.Gauge("balancer.max_staleness_secs")
	b.obsGateTrips = reg.Counter("balancer.gate_trips")
	b.obsPolls = reg.Counter("balancer.status_polls")
	b.obsPollSkips = reg.Counter("balancer.status_skips")
	b.obsPollErrs = reg.Counter("balancer.staleness_poll_errors")
	b.obsRTTSkips = reg.Counter("balancer.rtt_skips")
	b.obsFraction.Set(int64(b.balPct))
	b.lastPollAt = -1
	// Surface poller liveness in serverStatus snapshots: the age of the
	// last *successful* staleness poll. A wedged or always-failing
	// poller shows up as a growing age (-1 until the first success)
	// instead of silently stale gate state.
	pollAge := reg.Gauge("balancer.staleness_poll_age_secs")
	reg.RegisterCollector(func() {
		b.mu.Lock()
		last := b.lastPollAt
		b.mu.Unlock()
		if last < 0 {
			pollAge.Set(-1)
			return
		}
		pollAge.Set(int64((b.env.Now() - last) / time.Second))
	})
	return b
}

// Params returns the effective parameters.
func (b *Balancer) Params() Params { return b.params }

// Start launches the period loop, the staleness poller and the RTT
// pinger.
func (b *Balancer) Start() {
	b.env.Spawn("core/balancer-period", b.periodLoop)
	b.env.Spawn("core/staleness-poller", b.stalenessLoop)
	b.env.Spawn("core/rtt-pinger", b.rttLoop)
}

// Fraction returns the current published Balance Fraction in [0,1].
func (b *Balancer) Fraction() float64 {
	return float64(b.FractionPct()) / 100
}

// FractionPct returns the published Balance Fraction in whole percent.
func (b *Balancer) FractionPct() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.balPct
}

// MaxStaleness returns the latest conservative staleness estimate in
// seconds.
func (b *Balancer) MaxStaleness() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.maxStale
}

// Gated reports whether the staleness gate currently forces all reads
// to the primary.
func (b *Balancer) Gated() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gated
}

// Stats returns a copy of the balancer's activity counters.
func (b *Balancer) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Decisions returns the retained period-end decision trace, oldest
// first — at most Params.DecisionCap entries.
func (b *Balancer) Decisions() []Decision {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.decisions.list()
}

// LastDecision returns the most recent period-end decision, if one has
// been made — the reason code the router links into a sampled read's
// trace.
func (b *Balancer) LastDecision() (Decision, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.decisions.last()
}

// Record reports one client-observed read latency for the given Read
// Preference — the shared lists of Figure 1.
func (b *Balancer) Record(pref driver.ReadPref, lat time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch pref {
	case driver.Primary:
		b.latPrimary.add(lat)
		b.ewmaPrimary = ewma(b.ewmaPrimary, lat)
	case driver.Secondary:
		b.latSecondary.add(lat)
		b.ewmaSecond = ewma(b.ewmaSecond, lat)
	}
}

// ewma folds a sample into a smoothed estimate (alpha 0.1).
func ewma(prev, sample time.Duration) time.Duration {
	if prev == 0 {
		return sample
	}
	return time.Duration(0.9*float64(prev) + 0.1*float64(sample))
}

// LatencyEstimate returns the smoothed client-observed read latency
// for the given Read Preference (0 before any sample).
func (b *Balancer) LatencyEstimate(pref driver.ReadPref) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if pref == driver.Secondary {
		return b.ewmaSecond
	}
	return b.ewmaPrimary
}

// rttLoop pings every node each RTTPing interval and files the sample
// under the Read Preference group the node belongs to. A failed probe
// (negative RTT: the target is down or mid-failover) is skipped and
// counted instead of being filed as a sample — filing it would poison
// the role's median with garbage, or file a dead primary's "RTT"
// under a role it no longer holds.
func (b *Balancer) rttLoop(p sim.Proc) {
	conn := b.client.Conn()
	for {
		primary := conn.PrimaryID()
		for _, id := range conn.NodeIDs() {
			rtt := conn.Ping(p, id)
			if rtt < 0 {
				b.obsRTTSkips.Inc(1)
				b.mu.Lock()
				b.stats.RTTSkips++
				b.mu.Unlock()
				continue
			}
			b.mu.Lock()
			if id == primary {
				b.rttPrimary.add(rtt)
			} else {
				b.rttSecondary.add(rtt)
			}
			b.mu.Unlock()
		}
		p.Sleep(b.params.RTTPing)
	}
}

// stalenessLoop implements Rcv-ServerStatus: poll serverStatus (at the
// primary, conservatively), update Staleness, and gate the published
// fraction immediately when the bound is breached.
func (b *Balancer) stalenessLoop(p sim.Proc) {
	conn := b.client.Conn()
	for {
		from := conn.PrimaryID()
		if b.params.StalenessFromSecondary {
			for _, id := range conn.NodeIDs() {
				if id != from {
					from = id
					break
				}
			}
		}
		st := conn.ServerStatus(p, from)
		if !st.OK() {
			// The polled node is down or unreachable (common mid-
			// failover). Skip the sample: a member-less status would
			// read as zero staleness and silently open the gate. The
			// failure is counted (staleness_poll_errors) and the last
			// successful poll's age keeps growing in serverStatus, so a
			// wedged poller is visible rather than silent.
			b.obsPollSkips.Inc(1)
			b.obsPollErrs.Inc(1)
			b.mu.Lock()
			b.stats.StatusPolls++
			b.stats.StatusSkips++
			b.mu.Unlock()
			p.Sleep(b.params.StalenessPoll)
			continue
		}
		stale := st.MaxSecondaryStalenessSecs()
		b.obsPolls.Inc(1)
		b.mu.Lock()
		b.stats.StatusPolls++
		b.maxStale = stale
		b.lastPollAt = p.Now()
		b.applyGateLocked()
		b.mu.Unlock()
		b.obsStaleness.Set(stale)
		p.Sleep(b.params.StalenessPoll)
	}
}

// applyGateLocked recomputes the published fraction from the latest
// decision and the staleness gate. Caller holds b.mu.
func (b *Balancer) applyGateLocked() {
	breach := b.params.StaleBound == 0 || b.maxStale > b.params.StaleBound
	if breach {
		if !b.gated {
			b.stats.GateTrips++
			b.obsGateTrips.Inc(1)
		}
		b.gated = true
		b.balPct = 0
		b.obsFraction.Set(0)
		return
	}
	b.gated = false
	b.balPct = b.recent[len(b.recent)-1]
	b.obsFraction.Set(int64(b.balPct))
}

// periodLoop implements OnPeriodEnd.
func (b *Balancer) periodLoop(p sim.Proc) {
	for {
		p.Sleep(b.params.Period)
		b.endPeriod(p.Now())
	}
}

// endPeriod runs one OnPeriodEnd step using the latencies and RTT
// samples accumulated during the period. Exposed for deterministic
// unit testing.
func (b *Balancer) endPeriod(now time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()

	latP, latS := b.latPrimary.take(), b.latSecondary.take()
	rttP, rttS := b.rttPrimary.take(), b.rttSecondary.take()
	b.stats.Periods++

	latest := b.recent[len(b.recent)-1]
	newBal := latest
	ratio := 0.0
	reason := ReasonHold

	if len(latP) > 0 && len(latS) > 0 {
		lssP := b.serverSideLatency(latP, rttP)
		lssS := b.serverSideLatency(latS, rttS)
		ratio = float64(lssP) / float64(lssS)
		switch {
		case ratio > b.params.HighRatio:
			newBal = min(latest+b.params.DeltaPct, b.params.HighBalPct)
			b.stats.Increases++
			reason = ReasonIncrease
		case ratio < b.params.LowRatio:
			newBal = max(latest-b.params.DeltaPct, b.params.LowBalPct)
			b.stats.Decreases++
			reason = ReasonDecrease
		case !b.params.NoExploration && allEqual(b.recent):
			// Stable for RecentLen periods: probe downward to move
			// reads back to the primary for freshness (§3.3).
			newBal = max(latest-b.params.DeltaPct, b.params.LowBalPct)
			b.stats.Explorations++
			reason = ReasonExplore
		default:
			b.stats.Holds++
		}
	} else {
		b.stats.Holds++
	}

	b.recent = append(b.recent[1:], newBal)
	b.applyGateLocked()
	b.obsReasons[reason].Inc(1)
	if b.gated {
		// Count the gate separately: the controller's reason records
		// what it computed; "gated" records what was published.
		b.obsReasons[ReasonGated].Inc(1)
	}
	b.decisions.add(Decision{
		At: now, Ratio: ratio, NewBalPct: newBal,
		Published: b.balPct, Reason: reason, Gated: b.gated,
	})
}

// serverSideLatency computes L_ss = agg(L_client) − agg(RTT), clamped
// to a small positive floor so the ratio stays defined.
func (b *Balancer) serverSideLatency(lat, rtt []time.Duration) time.Duration {
	agg := func(s []time.Duration) time.Duration {
		if b.params.UseMean {
			var sum time.Duration
			for _, v := range s {
				sum += v
			}
			if len(s) == 0 {
				return 0
			}
			return sum / time.Duration(len(s))
		}
		return obs.PercentileOf(s, 0.50)
	}
	lss := agg(lat)
	if !b.params.NoRTTSubtraction {
		lss -= agg(rtt)
	}
	const floor = 10 * time.Microsecond
	if lss < floor {
		lss = floor
	}
	return lss
}

func allEqual(s []int) bool {
	for _, v := range s[1:] {
		if v != s[0] {
			return false
		}
	}
	return true
}
