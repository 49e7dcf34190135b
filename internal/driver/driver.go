// Package driver implements a MongoDB-like client: Read Preference
// options (primary, primaryPreferred, secondary, secondaryPreferred,
// nearest), server selection with the 15 ms latency window over
// EWMA-smoothed RTTs, the maxStalenessSeconds option with MongoDB's
// 90-second floor, and a background topology monitor.
//
// Decongestant sits above this driver: it flips a biased coin per read
// and passes Pref Primary or Secondary accordingly, exactly as the
// paper's clients do.
package driver

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"decongestant/internal/cache"
	"decongestant/internal/cluster"
	"decongestant/internal/obs"
	"decongestant/internal/obs/trace"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
)

// ReadPref selects where read operations are routed.
type ReadPref int

const (
	// Primary routes reads to the primary (the MongoDB default).
	Primary ReadPref = iota
	// PrimaryPreferred prefers the primary, falling back to a
	// secondary when the primary is unavailable.
	PrimaryPreferred
	// Secondary routes reads to a randomly chosen secondary within
	// the latency window.
	Secondary
	// SecondaryPreferred prefers secondaries, falling back to the
	// primary when none is available.
	SecondaryPreferred
	// Nearest routes to the lowest-latency member regardless of role.
	Nearest
	// Linearizable routes strong reads across every lease-holding
	// member (leader-leased primary and read-leased secondaries) within
	// the latency window. A member that cannot honor its lease rejects
	// with a retryable error and the read falls back to the primary.
	Linearizable
)

func (r ReadPref) String() string {
	switch r {
	case Primary:
		return "primary"
	case PrimaryPreferred:
		return "primaryPreferred"
	case Secondary:
		return "secondary"
	case SecondaryPreferred:
		return "secondaryPreferred"
	case Nearest:
		return "nearest"
	case Linearizable:
		return "linearizable"
	}
	return fmt.Sprintf("ReadPref(%d)", int(r))
}

// LatencyWindow is the server-selection latency window: eligible
// members whose smoothed RTT is within this much of the fastest
// eligible member may be chosen (MongoDB uses 15 ms).
const LatencyWindow = 15 * time.Millisecond

// SmallestMaxStalenessSeconds is MongoDB's floor for the
// maxStalenessSeconds read option. The paper's point is that
// Decongestant bounds staleness far below this floor.
const SmallestMaxStalenessSeconds = 90

// ErrNoEligibleServer is returned when server selection finds no
// member satisfying the read preference.
var ErrNoEligibleServer = errors.New("driver: no server satisfies the read preference")

// ErrMaxStalenessTooSmall is returned for 0 < maxStalenessSeconds < 90.
var ErrMaxStalenessTooSmall = fmt.Errorf("driver: maxStalenessSeconds must be >= %d", SmallestMaxStalenessSeconds)

// ErrNoLinearizable is returned when the connection lacks the
// LinearizableConn capability.
var ErrNoLinearizable = errors.New("driver: connection does not support linearizable reads")

// ReadOptions carries per-read routing options.
type ReadOptions struct {
	Pref ReadPref
	// MaxStalenessSeconds filters out secondaries whose estimated
	// staleness exceeds the value. 0 means no bound. Values below
	// SmallestMaxStalenessSeconds are rejected, as in MongoDB.
	MaxStalenessSeconds int64
	// AuditBoundSecs is the freshness bound, in seconds, the caller
	// promises for this read — the value the serving side's freshness
	// auditor checks observed staleness against. Unlike
	// MaxStalenessSeconds it does not affect routing and has no floor
	// (the Decongestant balancer bounds staleness far below MongoDB's);
	// 0 means no declared bound.
	AuditBoundSecs int64
}

// Conn abstracts the deployed replica set from the client's side —
// implemented by *cluster.ReplicaSet in-process and by the wire
// client over TCP.
type Conn interface {
	NodeIDs() []int
	PrimaryID() int
	Zone(id int) string
	ExecRead(p sim.Proc, nodeID int, fn func(v cluster.ReadView) (any, error)) (any, error)
	ExecWrite(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, error)
	Ping(p sim.Proc, nodeID int) time.Duration
	ServerStatus(p sim.Proc, nodeID int) cluster.Status
}

// TracedConn is the optional connection capability that threads a
// trace context and an audited staleness bound through read execution
// (cluster.ExecReadMeta). Both the in-process replica set and the wire
// client implement it; plain Conns simply skip per-read auditing.
type TracedConn interface {
	Conn
	ExecReadMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, error)
}

// TraceProvider is implemented by connections that carry their own
// span recorder. The driver records its spans there, so one trace id
// retrieves every hop from driver to serving node.
type TraceProvider interface {
	Tracer() *trace.Recorder
}

// LinearizableConn is the optional connection capability backing
// lease-based linearizable reads (cluster.ExecReadLinearizableMeta):
// the primary serves under its leader lease or a majority-confirm
// round, a secondary from a valid read lease, rejecting with a typed
// *cluster.LeaseError otherwise. Both the in-process replica set and
// the wire client implement it.
type LinearizableConn interface {
	Conn
	ExecReadLinearizableMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, error)
}

// OplogTailer is the optional change-feed capability: scan the
// primary's oplog after an OpTime, returning decoded entries plus the
// primary's lastApplied and the log's truncation horizon (see
// cluster.ReplicaSet.OplogTail for the semantics). The in-process
// cluster conn and the wire client both offer it; chunk migration
// type-asserts for it to drain a source shard's writes.
type OplogTailer interface {
	OplogTail(p sim.Proc, after oplog.OpTime, max int) ([]oplog.DecodedEntry, oplog.OpTime, oplog.OpTime, error)
}

// Statically assert the in-process replica set satisfies Conn and the
// trace capabilities.
var (
	_ Conn             = (*clusterConn)(nil)
	_ TracedConn       = (*clusterConn)(nil)
	_ TraceProvider    = (*clusterConn)(nil)
	_ LinearizableConn = (*clusterConn)(nil)
)

type clusterConn struct{ *cluster.ReplicaSet }

// WrapCluster adapts an in-process replica set to the Conn interface.
func WrapCluster(rs *cluster.ReplicaSet) Conn { return clusterConn{rs} }

// MetricsProvider is implemented by connections that carry their own
// observability registry (the in-process cluster does). NewClient
// registers the driver's instruments there so one snapshot covers
// cluster, driver and balancer; connections without one (the wire
// client) get a fresh client-side registry instead.
type MetricsProvider interface {
	Metrics() *obs.Registry
}

// Client is a replica-set-aware session shared by any number of
// workload processes. It is safe for concurrent use under the
// real-time environment.
type Client struct {
	conn   Conn
	rng    *rand.Rand
	reg    *obs.Registry
	tracer *trace.Recorder

	// The connection's optional capabilities, resolved once in
	// NewClient so the read path never type-asserts (nil when absent).
	causal     CausalConn
	traced     TracedConn
	lin        LinearizableConn
	fresh      FreshConn
	cacheAudit CacheAuditor

	cache *cache.Cache // freshness-priced read cache (nil when disabled)

	// Cached registry instruments (atomic; no lock needed).
	obsSelections  [6]*obs.Counter // indexed by ReadPref
	obsNoEligible  *obs.Counter
	obsFallbacks   *obs.Counter
	obsRTTSkips    *obs.Counter
	obsStatusSkips *obs.Counter

	mu       sync.Mutex
	rtt      map[int]time.Duration // EWMA per node
	lastStat *cluster.Status       // latest topology staleness view
}

// NewClient creates a client over the given connection. RTT estimates
// start empty and fill in as the monitor (or the Read Balancer's RTT
// pinger) collects real samples; until a node has a sample it is
// excluded from the latency window and picked only as a last resort.
func NewClient(env sim.Env, conn Conn) *Client {
	reg := obs.NewRegistry()
	if mp, ok := conn.(MetricsProvider); ok {
		reg = mp.Metrics()
	}
	c := &Client{
		conn: conn,
		rng:  env.NewRand("driver-client"),
		reg:  reg,
		rtt:  make(map[int]time.Duration),
	}
	c.causal, _ = conn.(CausalConn)
	c.traced, _ = conn.(TracedConn)
	c.lin, _ = conn.(LinearizableConn)
	c.fresh, _ = conn.(FreshConn)
	c.cacheAudit, _ = conn.(CacheAuditor)
	if tp, ok := conn.(TraceProvider); ok {
		c.tracer = tp.Tracer()
	} else {
		c.tracer = trace.NewRecorder(env.NewRand("driver-trace"), trace.Config{})
	}
	for pref := Primary; pref <= Linearizable; pref++ {
		c.obsSelections[pref] = reg.Counter(obs.Name("driver.selections", "pref", pref.String()))
	}
	c.obsNoEligible = reg.Counter("driver.no_eligible_server")
	c.obsFallbacks = reg.Counter("driver.fallback_retries")
	c.obsRTTSkips = reg.Counter("driver.rtt_skips")
	c.obsStatusSkips = reg.Counter("driver.status_skips")
	return c
}

// Conn returns the underlying connection.
func (c *Client) Conn() Conn { return c.conn }

// Tracer returns the span recorder the client's reads record into —
// the connection's own recorder when it provides one. Sampling is
// controlled there (Recorder.SetSampling).
func (c *Client) Tracer() *trace.Recorder { return c.tracer }

// Metrics returns the registry the client's instruments live in —
// the connection's own registry when it provides one.
func (c *Client) Metrics() *obs.Registry { return c.reg }

// StartMonitor launches the topology monitor: it pings every member
// and refreshes the primary's serverStatus on the given interval,
// feeding server selection (MongoDB's client monitors do the same
// roughly every 10 seconds). When the primary is down or mid-failover
// the status sample is skipped — and counted — rather than cached as
// if it were a valid staleness view.
func (c *Client) StartMonitor(env sim.Env, interval time.Duration) {
	env.Spawn("driver/monitor", func(p sim.Proc) {
		for {
			c.RefreshRTTs(p)
			if st := c.conn.ServerStatus(p, c.conn.PrimaryID()); st.OK() {
				c.mu.Lock()
				c.lastStat = &st
				c.mu.Unlock()
			} else {
				c.obsStatusSkips.Inc(1)
			}
			p.Sleep(interval)
		}
	})
}

// RefreshRTTs pings every node once and folds the samples into the
// EWMA estimates (MongoDB's alpha is 0.2). Failed pings — a down
// node's probe returns a negative duration — are skipped and counted,
// never folded into the estimate.
func (c *Client) RefreshRTTs(p sim.Proc) {
	for _, id := range c.conn.NodeIDs() {
		sample := c.conn.Ping(p, id)
		if sample < 0 {
			c.obsRTTSkips.Inc(1)
			continue
		}
		c.mu.Lock()
		if prev, ok := c.rtt[id]; ok {
			c.rtt[id] = time.Duration(0.8*float64(prev) + 0.2*float64(sample))
		} else {
			c.rtt[id] = sample
		}
		c.mu.Unlock()
	}
}

// RTT returns the smoothed round-trip estimate for a node (0 if not
// yet measured).
func (c *Client) RTT(id int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rtt[id]
}

// SelectServer picks the node a read with the given options should go
// to, applying role filtering, the maxStaleness filter, and the 15 ms
// latency window.
func (c *Client) SelectServer(opts ReadOptions) (int, error) {
	if opts.MaxStalenessSeconds != 0 && opts.MaxStalenessSeconds < SmallestMaxStalenessSeconds {
		return 0, ErrMaxStalenessTooSmall
	}
	if int(opts.Pref) >= 0 && int(opts.Pref) < len(c.obsSelections) {
		c.obsSelections[opts.Pref].Inc(1)
	}
	primary := c.conn.PrimaryID()
	switch opts.Pref {
	case Primary, PrimaryPreferred:
		// The primary is tracked via PrimaryID; the member list is
		// never built.
		return primary, nil
	case Linearizable:
		return c.pickWithinWindow(c.linearizableCandidates(primary)), nil
	}
	var secondaries []int
	for _, id := range c.conn.NodeIDs() {
		if id != primary {
			secondaries = append(secondaries, id)
		}
	}
	if opts.MaxStalenessSeconds > 0 {
		secondaries = c.filterByStaleness(secondaries, opts.MaxStalenessSeconds)
	}
	switch opts.Pref {
	case Secondary:
		if len(secondaries) == 0 {
			c.obsNoEligible.Inc(1)
			return 0, ErrNoEligibleServer
		}
		return c.pickWithinWindow(secondaries), nil
	case SecondaryPreferred:
		if len(secondaries) > 0 {
			return c.pickWithinWindow(secondaries), nil
		}
		return primary, nil
	case Nearest:
		return c.pickWithinWindow(append(secondaries, primary)), nil
	default:
		return 0, fmt.Errorf("driver: unknown read preference %v", opts.Pref)
	}
}

// linearizableCandidates returns the members a Linearizable read may
// go to: those the monitor last saw holding leases, always keeping the
// primary eligible (it can serve any strong read, leased or not). The
// view may be stale — a member that lost its lease since simply
// rejects and the read falls back.
func (c *Client) linearizableCandidates(primary int) []int {
	cands := c.leasedCandidates()
	for _, id := range cands {
		if id == primary {
			return cands
		}
	}
	return append(cands, primary)
}

// leasedCandidates returns the node ids the latest topology snapshot
// reported as lease holders (empty when leases are off or no snapshot
// has arrived yet).
func (c *Client) leasedCandidates() []int {
	c.mu.Lock()
	st := c.lastStat
	c.mu.Unlock()
	if st == nil || st.LeaseEpoch == 0 {
		return nil
	}
	var out []int
	for _, m := range st.Members {
		if m.Leased {
			out = append(out, m.ID)
		}
	}
	return out
}

func (c *Client) filterByStaleness(ids []int, bound int64) []int {
	c.mu.Lock()
	st := c.lastStat
	c.mu.Unlock()
	if st == nil {
		return ids
	}
	var out []int
	for _, id := range ids {
		if st.StalenessSecs(id) <= bound {
			out = append(out, id)
		}
	}
	return out
}

// pickWithinWindow chooses randomly among candidates whose EWMA RTT is
// within LatencyWindow of the fastest candidate.
func (c *Client) pickWithinWindow(candidates []int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	best := time.Duration(-1)
	for _, id := range candidates {
		r, ok := c.rtt[id]
		if !ok {
			continue
		}
		if best < 0 || r < best {
			best = r
		}
	}
	var eligible []int
	if best >= 0 {
		for _, id := range candidates {
			if r, ok := c.rtt[id]; ok && r <= best+LatencyWindow {
				eligible = append(eligible, id)
			}
		}
	}
	if len(eligible) == 0 {
		eligible = candidates
	}
	return eligible[c.rng.Intn(len(eligible))]
}

// ReadRequest is one read: where to route it and what rides along.
type ReadRequest struct {
	ReadOptions
	// Trace is the context the read runs under; the zero Context runs
	// it untraced. Client.Read originates one per read, and the core
	// router passes its own, carrying the routing decision.
	Trace trace.Context
	// After is the causal prerequisite: the serving member waits until
	// it has applied this OpTime (afterClusterTime). Sessions pass
	// their token.
	After oplog.OpTime
	// Fresh asks for the serving member's applied OpTime and observed
	// staleness, the stamp a caller-side freshness-priced cache (the
	// mongos router cache) prices its fills with. A Fresh read bypasses
	// the client's own cache.
	Fresh bool
}

// ReadResult is the outcome of one read.
type ReadResult struct {
	Value any
	// Node is the member that served the read: -1 for a cache hit, or
	// when no member was selected.
	Node int
	// Latency is the end-to-end latency the client observed.
	Latency time.Duration
	// OpTime is the serving member's applied OpTime (the newest fill
	// OpTime for a cache hit); zero on the plain path.
	OpTime oplog.OpTime
	// StalenessSecs is the staleness the serving member observed at
	// serve time (0 when the primary served); set only when Fresh.
	StalenessSecs int64
	// Fresh reports that OpTime and StalenessSecs came from the
	// connection's FreshConn capability. false means the results must
	// not be cached under a freshness bound.
	Fresh bool
	// Reason is the linearizable routing reason ("lease-valid",
	// "primary", "lease-expired→primary", ...); empty for every other
	// preference.
	Reason string
}

// Read selects a server per opts and runs the read body there,
// retrying once on the fallback role for the *Preferred preferences
// and at the primary for Linearizable. It returns the body result, the
// chosen node, and the end-to-end latency observed by the client. Read
// originates the trace sampling decision; with sampling off and no
// audit bound it is one plain conn.ExecRead.
func (c *Client) Read(p sim.Proc, opts ReadOptions, fn func(v cluster.ReadView) (any, error)) (any, int, time.Duration, error) {
	res, err := c.read(p, ReadRequest{ReadOptions: opts, Trace: c.tracer.StartTrace()}, nil, fn)
	return res.Value, res.Node, res.Latency, err
}

// ReadWith runs one read request under the context it carries (it
// originates none) and returns everything the read learned.
func (c *Client) ReadWith(p sim.Proc, req ReadRequest, fn func(v cluster.ReadView) (any, error)) (ReadResult, error) {
	return c.read(p, req, nil, fn)
}

// read is the one read path. Every read runs through it in this order:
// the cache phase, server selection, one conn call chosen from the
// request's shape (exec), the preference's fallback, and one span.
// sess, when non-nil, marks a causal session read: it takes no
// *Preferred fallback, because a causal wait on another member has no
// bound, and it receives the token advance.
func (c *Client) read(p sim.Proc, req ReadRequest, sess *Session, fn func(v cluster.ReadView) (any, error)) (ReadResult, error) {
	out := ReadResult{Node: -1}
	lin := req.Pref == Linearizable
	if lin && c.lin == nil {
		return out, ErrNoLinearizable
	}
	start := p.Now()
	var err error
	// Cache phase: a bounded read spends its staleness budget locally
	// before paying the network. It is served from valid entries alone
	// (a hit), or it becomes a fill: concurrent readers of the missing
	// key collapse into one singleflight leader, whose read records every
	// point-read result for the cache.
	cacheUse := ""
	var rec *fillRecorder
	if c.cache != nil && req.AuditBoundSecs > 0 && !lin && !req.Fresh {
		var missKey cache.Key
		var hit bool
		out.Value, out.OpTime, missKey, hit, err = c.tryCacheHit(p, req, fn)
		if !hit {
			leader := c.cache.BeginFill(p, missKey)
			if !leader {
				// Collapsed follower: the leader's fill may already
				// answer. If not, and a second leader is already
				// refetching, fetch alongside it rather than queueing.
				out.Value, out.OpTime, _, hit, err = c.tryCacheHit(p, req, fn)
				leader = !hit && c.cache.BeginFill(p, missKey)
			}
			if leader {
				defer c.cache.EndFill(missKey)
			}
		}
		cacheUse = "hit"
		if !hit {
			cacheUse, rec = "fill", &fillRecorder{}
		}
	}
	var spanID uint64
	if req.Trace.Live() {
		spanID = c.tracer.NewSpanID()
	}
	if cacheUse != "hit" {
		if out.Node, err = c.SelectServer(req.ReadOptions); err != nil {
			return ReadResult{Node: -1, Latency: p.Now() - start}, err
		}
		meta := cluster.ReadMeta{
			Ctx:       trace.Context{TraceID: req.Trace.TraceID, SpanID: spanID, Route: req.Trace.Route},
			BoundSecs: req.AuditBoundSecs,
		}
		body := fn
		if rec != nil {
			body = rec.wrap(fn)
		}
		err = c.exec(p, &out, req, meta, sess != nil, rec != nil, body)
		if lin {
			out.Reason = RouteLeaseValid
			if out.Node == c.conn.PrimaryID() {
				out.Reason = RoutePrimary
			}
		}
		for attempt := 0; err != nil; attempt++ {
			next, why, ok := c.fallback(req, sess != nil, attempt, out.Node, err)
			if !ok {
				break
			}
			c.obsFallbacks.Inc(1)
			if lin {
				c.reg.Counter(obs.Name("driver.lease_fallbacks", "reason", why)).Inc(1)
				out.Reason = why + "→primary"
				// Rewrite the route snapshot riding the wire so the
				// primary's slow-op log and currentOp attribute the
				// redirected hop to its cause, not to the original
				// routing choice.
				if meta.Ctx.Route != nil {
					rt := *meta.Ctx.Route
					rt.Reason = out.Reason
					meta.Ctx.Route = &rt
				}
			}
			out.Node = next
			err = c.exec(p, &out, req, meta, sess != nil, rec != nil, body)
		}
		if rec != nil && err == nil {
			rec.fill(c.cache, p.Now(), out.StalenessSecs, out.OpTime)
		}
	}
	out.Latency = p.Now() - start
	if spanID != 0 {
		c.recordRead(req, sess != nil, cacheUse, spanID, start, out)
	}
	if sess != nil && err == nil {
		sess.advance(out.OpTime)
	}
	return out, err
}

// exec makes the one conn call the request's shape asks for, at
// out.Node, filling the rest of out. A capability the connection lacks
// degrades the shape to the next one down; Linearizable has none to
// degrade to and is refused earlier with ErrNoLinearizable.
//
//	Pref Linearizable              ExecReadLinearizableMeta
//	cache fill, or Fresh           ExecReadFreshMeta
//	live trace, or an audit bound  ExecReadMeta
//	session read, or After set     ExecReadAfter
//	anything else (plain)          ExecRead
func (c *Client) exec(p sim.Proc, out *ReadResult, req ReadRequest, meta cluster.ReadMeta, session, fill bool, fn func(v cluster.ReadView) (any, error)) (err error) {
	switch {
	case req.Pref == Linearizable:
		out.Value, out.OpTime, err = c.lin.ExecReadLinearizableMeta(p, out.Node, req.After, meta, fn)
	case (fill || req.Fresh) && c.fresh != nil:
		out.Value, out.OpTime, out.StalenessSecs, err = c.fresh.ExecReadFreshMeta(p, out.Node, req.After, meta, fn)
		out.Fresh = true
	case c.traced != nil && (meta.Ctx.Live() || meta.BoundSecs != 0):
		out.Value, out.OpTime, err = c.traced.ExecReadMeta(p, out.Node, req.After, meta, fn)
	case c.causal != nil && (session || !req.After.IsZero()):
		out.Value, out.OpTime, err = c.causal.ExecReadAfter(p, out.Node, req.After, fn)
	default:
		out.Value, err = c.conn.ExecRead(p, out.Node, fn)
	}
	return err
}

// fallback is the retry policy, one per preference. A lease rejection
// or a down member sends a Linearizable read to the primary, twice at
// most (a failover between attempts moves the primary once), with why
// naming the rejection. A down member sends a PrimaryPreferred read to
// a secondary and a SecondaryPreferred read to the primary, once,
// except in a session. Every other failure is final.
func (c *Client) fallback(req ReadRequest, session bool, attempt, node int, err error) (next int, why string, ok bool) {
	if req.Pref == Linearizable {
		why, isLease := cluster.LeaseReject(err)
		if !isLease {
			if !errors.Is(err, cluster.ErrNodeDown) {
				return 0, "", false
			}
			why = "node-down"
		}
		if attempt >= 2 {
			return 0, "", false
		}
		primary := c.conn.PrimaryID()
		return primary, why, node != primary
	}
	if session || attempt > 0 || !errors.Is(err, cluster.ErrNodeDown) {
		return 0, "", false
	}
	switch req.Pref {
	case PrimaryPreferred:
		opts := req.ReadOptions
		opts.Pref = Secondary
		next, err := c.SelectServer(opts)
		return next, "", err == nil
	case SecondaryPreferred:
		return c.conn.PrimaryID(), "", true
	}
	return 0, "", false
}

// recordRead is the read path's one span-recording site: a driver.read
// span parented on the caller's context, attributed with the
// preference and the serving node, the linearizable reason, or the
// cache use. An uncached causal session read records a session.read
// span carrying its token instead.
func (c *Client) recordRead(req ReadRequest, session bool, cacheUse string, spanID uint64, start time.Duration, out ReadResult) {
	sp := trace.Span{
		Trace:  req.Trace.TraceID,
		ID:     spanID,
		Parent: req.Trace.SpanID,
		Name:   "driver.read",
		Node:   -1,
		Start:  start,
		Dur:    out.Latency,
		Attrs:  append(make([]trace.Attr, 0, 3), trace.Attr{K: "pref", V: req.Pref.String()}),
	}
	switch {
	case cacheUse == "hit":
	case session && cacheUse == "" && req.Pref != Linearizable:
		sp.Name = "session.read"
		sp.Attrs = append(sp.Attrs, trace.Attr{K: "after", V: req.After.String()})
	default:
		sp.Attrs = append(sp.Attrs, trace.Attr{K: "node", V: strconv.Itoa(out.Node)})
	}
	if out.Reason != "" {
		sp.Attrs = append(sp.Attrs, trace.Attr{K: "reason", V: out.Reason})
	}
	if cacheUse != "" {
		sp.Attrs = append(sp.Attrs, trace.Attr{K: "cache", V: cacheUse})
	}
	c.tracer.Record(sp)
}

// Write runs a write transaction at the primary and returns the
// result and end-to-end latency. With the cache enabled, written keys
// are write-through invalidated after commit.
func (c *Client) Write(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, time.Duration, error) {
	start := p.Now()
	if c.cache != nil {
		rec := &invalidatingTxn{}
		res, err := c.conn.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
			rec.WriteTxn = tx
			return fn(rec)
		})
		if err == nil {
			c.invalidateKeys(rec.keys)
		}
		return res, p.Now() - start, err
	}
	res, err := c.conn.ExecWrite(p, fn)
	return res, p.Now() - start, err
}

// Linearizable routing reasons, as surfaced to the balancer's decision
// ring and the slow-op log. "lease-valid" means a leased member served
// the read locally; the "→primary" forms attribute the extra hop a
// lease rejection caused.
const (
	RouteLeaseValid = "lease-valid"
	RoutePrimary    = "primary" // unleased primary served (majority-confirm baseline)
)
