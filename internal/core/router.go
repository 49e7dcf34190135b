package core

import (
	"math/rand"
	"strconv"
	"sync"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/obs/trace"
	"decongestant/internal/sim"
)

// Router is the piece of Decongestant living inside every client
// process (§3.2): before each read it consults the Read Balancer's
// latest Balance Fraction, flips a biased coin to pick primary or
// secondary Read Preference, executes the read through the driver,
// and reports the observed latency back to the Balancer's shared
// lists.
type Router struct {
	balancer *Balancer
	client   *driver.Client

	mu       sync.Mutex
	rng      *rand.Rand
	nPrimary int64
	nSecond  int64
	lin      linRing
}

// NewRouter creates a router bound to a balancer and driver client.
func NewRouter(env sim.Env, balancer *Balancer, client *driver.Client) *Router {
	return &Router{
		balancer: balancer,
		client:   client,
		rng:      env.NewRand("core-router"),
	}
}

// Choose flips the biased coin: secondary with probability equal to
// the current Balance Fraction, primary otherwise.
func (r *Router) Choose() driver.ReadPref {
	f := r.balancer.Fraction()
	r.mu.Lock()
	coin := r.rng.Float64()
	r.mu.Unlock()
	if coin < f {
		return driver.Secondary
	}
	return driver.Primary
}

// Read routes one read-only operation: coin flip, execute, record the
// client-observed latency with the Balancer, and count the actual
// destination (the experiments report measured percentages, not the
// suggested fraction).
func (r *Router) Read(p sim.Proc, fn func(v cluster.ReadView) (any, error)) (any, driver.ReadPref, time.Duration, error) {
	res, pref, err := r.ReadWith(p, driver.ReadRequest{}, fn)
	return res.Value, pref, res.Latency, err
}

// ReadWith routes one read request and returns its result with the
// preference it ran under.
//
// With Pref Linearizable the read routes across the replica set's lease
// holders: the driver picks among leased members (primary always
// eligible) using the same latency window the balancer's RTT pinger
// feeds, and falls back to the primary on a lease rejection. The
// latency is filed under the role that actually served (a leased
// secondary's local strong read counts as secondary capacity, exactly
// like a balanced stale read), and the routing reason is counted and
// kept in the decision ring.
//
// Any other Pref is replaced by the biased coin's choice, and a read
// the coin sends to a secondary declares the balancer's staleness
// bound, arming the serving side's freshness auditor.
//
// The router is the trace originator: a sampled read gets a
// router.read root span and a balancer.decision child recording the
// routing choice and the balancer state that produced it (reason code,
// fraction, staleness estimate at decision time, gate state), and the
// same decision snapshot rides the wire so the server's slow-op log
// can attribute the op to its routing. A Fresh read (a cache fill,
// whose spans the cache owner records) runs under the context it is
// given instead.
func (r *Router) ReadWith(p sim.Proc, req driver.ReadRequest, fn func(v cluster.ReadView) (any, error)) (driver.ReadResult, driver.ReadPref, error) {
	lin := req.Pref == driver.Linearizable
	if !lin {
		req.Pref = r.Choose()
		if req.Pref == driver.Secondary {
			req.AuditBoundSecs = r.balancer.Params().StaleBound
		}
	}
	tracer := r.client.Tracer()
	var tctx trace.Context
	if !req.Fresh {
		tctx = tracer.StartTrace()
		req.Trace = tctx
	}
	var start time.Duration
	if tctx.Live() {
		start = p.Now()
		req.Trace = r.recordDecision(tracer, tctx, start, req.Pref)
	}
	res, err := r.client.ReadWith(p, req, fn)
	if tctx.Live() {
		attrs := []trace.Attr{
			{K: "pref", V: req.Pref.String()},
			{K: "node", V: strconv.Itoa(res.Node)},
		}
		if lin {
			attrs = append(attrs, trace.Attr{K: "reason", V: res.Reason})
		}
		tracer.Record(trace.Span{
			Trace: tctx.TraceID,
			ID:    req.Trace.SpanID,
			Name:  "router.read",
			Node:  -1,
			Start: start,
			Dur:   p.Now() - start,
			Attrs: attrs,
		})
	}
	if res.Reason != "" {
		r.client.Metrics().Counter(obs.Name("router.linearizable", "reason", res.Reason)).Inc(1)
	}
	if err != nil {
		res.Value = nil
		return res, req.Pref, err
	}
	role := req.Pref
	if lin {
		role = driver.Secondary
		if res.Node == r.client.Conn().PrimaryID() {
			role = driver.Primary
		}
	}
	r.balancer.Record(role, res.Latency)
	r.mu.Lock()
	if role == driver.Secondary {
		r.nSecond++
	} else {
		r.nPrimary++
	}
	if lin {
		r.lin.add(LinDecision{At: p.Now(), Node: res.Node, Reason: res.Reason, Lat: res.Latency})
	}
	r.mu.Unlock()
	return res, req.Pref, nil
}

// recordDecision records a sampled read's balancer.decision span and
// returns the child context the read runs under: parented on a fresh
// router.read root id and carrying the route snapshot. A linearizable
// read's decision is "lease-routing"; a balanced read's is the
// balancer's latest reason code.
func (r *Router) recordDecision(tracer *trace.Recorder, tctx trace.Context, start time.Duration, pref driver.ReadPref) trace.Context {
	rootID := tracer.NewSpanID()
	staleSecs := r.balancer.MaxStaleness()
	fracPct := r.balancer.FractionPct()
	gated := r.balancer.Gated()
	reason := "lease-routing"
	if pref != driver.Linearizable {
		reason = ""
		if d, ok := r.balancer.LastDecision(); ok {
			reason = d.Reason
		}
	}
	tracer.Record(trace.Span{
		Trace:  tctx.TraceID,
		ID:     tracer.NewSpanID(),
		Parent: rootID,
		Name:   "balancer.decision",
		Node:   -1,
		Start:  start,
		Attrs: []trace.Attr{
			{K: "pref", V: pref.String()},
			{K: "reason", V: reason},
			{K: "frac_pct", V: strconv.Itoa(fracPct)},
			{K: "stale_secs", V: strconv.FormatInt(staleSecs, 10)},
			{K: "gated", V: strconv.FormatBool(gated)},
		},
	})
	return trace.Context{
		TraceID: tctx.TraceID,
		SpanID:  rootID,
		Route: &trace.Route{
			Pref:      pref.String(),
			Reason:    reason,
			FracPct:   fracPct,
			StaleSecs: staleSecs,
			Gated:     gated,
		},
	}
}

// LinDecision records one linearizable routing outcome: where the read
// was actually served and why — "lease-valid" when a leased member
// answered locally, "primary" for the unleased majority-confirm
// baseline, and the "→primary" forms when a lease rejection redirected
// the read (the reason names what the first member rejected with).
type LinDecision struct {
	At     time.Duration
	Node   int
	Reason string
	Lat    time.Duration
}

// linDecisionCap bounds the retained linearizable routing trace.
const linDecisionCap = 512

// linRing is a fixed-capacity ring of recent linearizable decisions,
// mirroring decisionRing for the lease-routing path.
type linRing struct {
	buf  []LinDecision
	next int
	n    int
}

func (r *linRing) add(d LinDecision) {
	if r.buf == nil {
		r.buf = make([]LinDecision, linDecisionCap)
	}
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

func (r *linRing) list() []LinDecision {
	out := make([]LinDecision, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// LinearizableDecisions returns the retained linearizable routing
// outcomes, oldest first — at most linDecisionCap entries.
func (r *Router) LinearizableDecisions() []LinDecision {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lin.list()
}

// Write forwards a write transaction to the primary via the driver.
func (r *Router) Write(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, time.Duration, error) {
	return r.client.Write(p, fn)
}

// Counts returns how many routed reads actually went to the primary
// and to secondaries, and resets the counters when reset is true.
func (r *Router) Counts(reset bool) (primary, secondary int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	primary, secondary = r.nPrimary, r.nSecond
	if reset {
		r.nPrimary, r.nSecond = 0, 0
	}
	return primary, secondary
}

// System bundles everything a Decongestant-enabled client system needs:
// the driver session, the Read Balancer and a Router.
type System struct {
	Client   *driver.Client
	Balancer *Balancer
	Router   *Router
}

// NewSystem wires a complete Decongestant deployment over a
// connection and starts the Balancer's background processes.
func NewSystem(env sim.Env, conn driver.Conn, params Params) *System {
	client := driver.NewClient(env, conn)
	balancer := NewBalancer(env, client, params)
	router := NewRouter(env, balancer, client)
	balancer.Start()
	return &System{Client: client, Balancer: balancer, Router: router}
}
