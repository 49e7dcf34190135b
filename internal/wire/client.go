package wire

import (
	"bufio"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/obs/trace"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// Client is a network connection to a wire server implementing
// driver.Conn, so driver.Client, the Read Balancer and the Router run
// against a remote replica set exactly as they do in-process.
//
// All callers share one multiplexed TCP connection: requests are
// pipelined onto the socket and a demux goroutine matches responses
// back to callers by request id, so concurrent operations keep many
// requests in flight without a connection per caller.
type Client struct {
	addr        string
	nextID      atomic.Uint64
	topoTTL     time.Duration
	dialTimeout time.Duration // bounds each (re)dial's connect and hello

	// tracer records client-side spans (the driver and exec hops run in
	// this process; the server only sees the wire ops). Sampling starts
	// off; SetTraceSampling arms it. PushTraces ships recorded spans to
	// the server so trace exports show the whole tree.
	tracer *trace.Recorder

	mu     sync.Mutex
	conn   *muxConn
	topo   Topology
	topoAt time.Time
	closed bool
}

// muxConn is one multiplexed connection. Senders append their frames
// to a shared pooled buffer, and one of them writes the burst (see
// send); the demux loop reads response frames and delivers each to the
// caller registered under its id.
type muxConn struct {
	c     net.Conn
	calls atomic.Int32 // callers inside roundTrip on this connection

	wmu      sync.Mutex
	out      *[]byte // appended frames no flusher has taken yet
	flushing bool    // a flusher is chosen and will take out as it stands

	pmu     sync.Mutex
	pending map[uint64]call
	err     error // set once the connection dies; sticky
}

// call is one request waiting for its response: demux fills resp and
// then delivers it on done.
type call struct {
	done chan *Response
	resp *Response
}

// send appends one frame and makes sure it is written. The first
// sender to find no flush pending becomes the flusher; later senders
// leave their frames to it and return. When another caller is inside
// roundTrip, the flusher first releases the lock and yields once, so
// callers that are about to send (a closed-loop caller whose response
// just arrived) append to this burst, and the whole burst leaves in
// one write. A lone caller never yields. Writes run outside the lock
// on a batch the flusher owns, so the next burst can fill meanwhile.
func (mc *muxConn) send(req *Request) error {
	mc.wmu.Lock()
	if mc.out == nil {
		mc.out = getBuf()
	}
	buf := *mc.out
	start := len(buf)
	buf, err := encodeRequest(beginFrame(buf), req)
	if err == nil {
		err = finishFrame(buf, start)
	}
	if err != nil {
		// *mc.out still ends at start: the failed encoder only wrote
		// past its length, or into a copy it grew.
		mc.wmu.Unlock()
		return err
	}
	*mc.out = buf
	if mc.flushing {
		mc.wmu.Unlock()
		return nil
	}
	mc.flushing = true
	if mc.calls.Load() > 1 {
		mc.wmu.Unlock()
		runtime.Gosched()
		mc.wmu.Lock()
	}
	batch := mc.out
	mc.out, mc.flushing = nil, false
	mc.wmu.Unlock()
	_, err = mc.c.Write(*batch)
	putBuf(batch)
	return err
}

// waiters recycles response channels. A channel returns to the pool
// only after it delivered its one response, so it is empty and nothing
// else holds it; a channel fail closed is dropped.
var waiters = sync.Pool{New: func() any { return make(chan *Response, 1) }}

// responses recycles the Responses demux fills. roundTrip's caller
// hands one back with releaseResponse once it has copied out what it
// keeps; one that is not handed back is simply collected.
var responses = sync.Pool{New: func() any { return new(Response) }}

// releaseResponse clears resp, so the pool holds nothing alive, and
// pools it. A nil resp is ignored.
func releaseResponse(resp *Response) {
	if resp != nil {
		*resp = Response{}
		responses.Put(resp)
	}
}

// register files a call for a request id.
func (mc *muxConn) register(id uint64) (call, error) {
	c := call{done: waiters.Get().(chan *Response), resp: responses.Get().(*Response)}
	mc.pmu.Lock()
	defer mc.pmu.Unlock()
	if mc.err != nil {
		waiters.Put(c.done)
		responses.Put(c.resp)
		return call{}, mc.err
	}
	mc.pending[id] = c
	return c, nil
}

// demux delivers response frames to their registered callers until the
// connection dies, then fails every outstanding caller. Frames are
// read into a per-connection reused buffer; decoding copies what it
// keeps, so the buffer never escapes a loop iteration. Each frame
// decodes into one reused Response, which is then copied into the
// caller's pooled one: a response allocates nothing of its own.
func (mc *muxConn) demux() {
	fr := &frameReader{r: bufio.NewReader(mc.c)}
	var resp Response
	for {
		body, err := fr.next()
		if err != nil {
			mc.fail(err)
			return
		}
		resp = Response{}
		if err := decodeResponse(body, &resp); err != nil {
			mc.fail(err)
			return
		}
		mc.pmu.Lock()
		c, ok := mc.pending[resp.ID]
		delete(mc.pending, resp.ID)
		mc.pmu.Unlock()
		if ok {
			*c.resp = resp
			c.done <- c.resp
		}
	}
}

// fail marks the connection dead and wakes all waiting callers (their
// channels close without a response).
func (mc *muxConn) fail(err error) {
	mc.c.Close()
	mc.pmu.Lock()
	if mc.err == nil {
		mc.err = err
	}
	for id, c := range mc.pending {
		delete(mc.pending, id)
		close(c.done)
	}
	mc.pmu.Unlock()
}

// failure returns the sticky connection error.
func (mc *muxConn) failure() error {
	mc.pmu.Lock()
	defer mc.pmu.Unlock()
	if mc.err == nil {
		return errors.New("wire: connection closed")
	}
	return mc.err
}

// broken reports whether the connection has died.
func (mc *muxConn) broken() bool {
	mc.pmu.Lock()
	defer mc.pmu.Unlock()
	return mc.err != nil
}

// Statically assert Client satisfies the driver's connection
// interfaces, including the causal-session capability.
var (
	_ driver.Conn             = (*Client)(nil)
	_ driver.CausalConn       = (*Client)(nil)
	_ driver.TracedConn       = (*Client)(nil)
	_ driver.TraceProvider    = (*Client)(nil)
	_ driver.OplogTailer      = (*Client)(nil)
	_ driver.LinearizableConn = (*Client)(nil)
	_ driver.FreshConn        = (*Client)(nil)
)

// dialTimeout bounds the TCP connect and the hello exchange of every
// dial. getMux dials under cl.mu, so without it one peer that accepts
// and never answers would block every caller of the client.
const dialTimeout = 5 * time.Second

// Dial connects to a wire server and fetches the initial topology.
func Dial(addr string) (*Client, error) {
	return dial(addr, dialTimeout)
}

func dial(addr string, timeout time.Duration) (*Client, error) {
	cl := &Client{
		addr: addr, topoTTL: 5 * time.Second, dialTimeout: timeout,
		tracer: trace.NewRecorder(rand.New(rand.NewSource(time.Now().UnixNano())), trace.Config{}),
	}
	if err := cl.refreshTopology(); err != nil {
		return nil, err
	}
	return cl, nil
}

// Tracer exposes the client-side span recorder; driver.Client adopts
// it via driver.TraceProvider so one recorder holds a process's spans.
func (cl *Client) Tracer() *trace.Recorder { return cl.tracer }

// SetTraceSampling sets the probabilistic sampling rate in [0,1] for
// operations originated through this client. 0 (the default) turns
// tracing off; its cost is then one atomic load per operation.
func (cl *Client) SetTraceSampling(rate float64) { cl.tracer.SetSampling(rate) }

// Close shuts the shared connection; outstanding callers fail.
func (cl *Client) Close() {
	cl.mu.Lock()
	cl.closed = true
	mc := cl.conn
	cl.conn = nil
	cl.mu.Unlock()
	if mc != nil {
		mc.fail(errors.New("wire: client closed"))
	}
}

// getMux returns the live shared connection, dialing a fresh one if
// none exists or the previous one died.
func (cl *Client) getMux() (*muxConn, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil, errors.New("wire: client closed")
	}
	if cl.conn != nil && !cl.conn.broken() {
		return cl.conn, nil
	}
	mc, err := cl.dialMux()
	if err != nil {
		return nil, err
	}
	cl.conn = mc
	return mc, nil
}

// dialMux dials and exchanges hellos within cl.dialTimeout. A server
// that refuses the connection (at its MaxConns cap, say) closes it
// without answering, and the dial fails.
func (cl *Client) dialMux() (*muxConn, error) {
	c, err := net.DialTimeout("tcp", cl.addr, cl.dialTimeout)
	if err != nil {
		return nil, err
	}
	c.SetDeadline(time.Now().Add(cl.dialTimeout))
	if err := clientHandshake(c); err != nil {
		c.Close()
		return nil, err
	}
	c.SetDeadline(time.Time{})
	mc := &muxConn{c: c, pending: map[uint64]call{}}
	go mc.demux()
	return mc, nil
}

func clientHandshake(c net.Conn) error {
	if err := writeHello(c); err != nil {
		return err
	}
	return readHello(c)
}

// roundTrip pipelines one request onto the shared connection and
// waits for the response with its id. The response is pooled: the
// caller copies out what it keeps and hands it back with
// releaseResponse. An error response is released here and comes back
// as the error alone.
func (cl *Client) roundTrip(req *Request) (*Response, error) {
	req.ID = cl.nextID.Add(1)
	mc, err := cl.getMux()
	if err != nil {
		return nil, err
	}
	mc.calls.Add(1)
	defer mc.calls.Add(-1)
	c, err := mc.register(req.ID)
	if err != nil {
		return nil, err
	}
	if err := mc.send(req); err != nil {
		mc.fail(err)
		return nil, err
	}
	resp, ok := <-c.done
	if !ok {
		return nil, mc.failure()
	}
	waiters.Put(c.done)
	if resp.Err != "" {
		err := &Error{Code: resp.Code, Msg: resp.Err}
		releaseResponse(resp)
		return nil, err
	}
	return resp, nil
}

// do is roundTrip for a request whose response carries nothing the
// caller keeps.
func (cl *Client) do(req *Request) error {
	resp, err := cl.roundTrip(req)
	releaseResponse(resp)
	return err
}

func (cl *Client) refreshTopology() error {
	resp, err := cl.roundTrip(&Request{Op: OpTopology})
	if err != nil {
		return err
	}
	defer releaseResponse(resp)
	if resp.Topo == nil {
		return errors.New("wire: empty topology")
	}
	cl.mu.Lock()
	cl.topo = *resp.Topo
	cl.topoAt = time.Now()
	cl.mu.Unlock()
	return nil
}

func (cl *Client) topology() Topology {
	cl.mu.Lock()
	fresh := time.Since(cl.topoAt) < cl.topoTTL
	topo := cl.topo
	cl.mu.Unlock()
	if !fresh {
		if err := cl.refreshTopology(); err == nil {
			cl.mu.Lock()
			topo = cl.topo
			cl.mu.Unlock()
		}
	}
	return topo
}

// NodeIDs implements driver.Conn.
func (cl *Client) NodeIDs() []int {
	topo := cl.topology()
	ids := make([]int, len(topo.Zones))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// PrimaryID implements driver.Conn.
func (cl *Client) PrimaryID() int { return cl.topology().Primary }

// Zone implements driver.Conn.
func (cl *Client) Zone(id int) string {
	topo := cl.topology()
	if id < 0 || id >= len(topo.Zones) {
		return ""
	}
	return topo.Zones[id]
}

// Ping implements driver.Conn: one protocol round trip, timed. A
// failed probe — the node is down, or the server is unreachable —
// returns a negative duration so callers skip the sample instead of
// folding an error path's timing into their RTT estimates.
func (cl *Client) Ping(p sim.Proc, nodeID int) time.Duration {
	start := time.Now()
	if err := cl.do(&Request{Op: OpPing, Node: nodeID}); err != nil {
		return -1
	}
	return time.Since(start)
}

// FetchMetrics retrieves the server's observability snapshot — the
// cluster registry merged with every pushed client snapshot.
func (cl *Client) FetchMetrics() (obs.Snapshot, error) {
	resp, err := cl.roundTrip(&Request{Op: OpMetrics})
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer releaseResponse(resp)
	if resp.Metrics == nil {
		return obs.Snapshot{}, errors.New("wire: empty metrics response")
	}
	return *resp.Metrics, nil
}

// PushMetrics uploads a client-side snapshot under the given source
// name; the server namespaces it as "<source>." and folds it into
// subsequent metrics responses. Push repeatedly to keep it current.
func (cl *Client) PushMetrics(source string, snap obs.Snapshot) error {
	return cl.do(&Request{Op: OpMetricsPush, Source: source, Snapshot: &snap})
}

// FetchTrace retrieves every span the server holds for one trace id —
// ring-resident spans plus pinned copies (freshness-bound violators
// survive ring eviction).
func (cl *Client) FetchTrace(id uint64) ([]trace.Span, error) {
	resp, err := cl.roundTrip(&Request{Op: OpTrace, DocID: trace.IDString(id)})
	if err != nil {
		return nil, err
	}
	defer releaseResponse(resp)
	return resp.Spans, nil
}

// RecentSpans retrieves the server's most recent spans, newest first.
// limit <= 0 takes the server default (256); the server caps it.
func (cl *Client) RecentSpans(limit int) ([]trace.Span, error) {
	resp, err := cl.roundTrip(&Request{Op: OpTrace, Limit: limit})
	if err != nil {
		return nil, err
	}
	defer releaseResponse(resp)
	return resp.Spans, nil
}

// CurrentOp retrieves the requests currently in dispatch server-side,
// longest running first — MongoDB's currentOp. Empty unless the server
// was configured with CurrentOp.
func (cl *Client) CurrentOp() ([]trace.OpInfo, error) {
	resp, err := cl.roundTrip(&Request{Op: OpCurrentOp})
	if err != nil {
		return nil, err
	}
	defer releaseResponse(resp)
	return resp.Ops, nil
}

// PushTraces drains the client recorder's spans and ships them to the
// server, which imports them into its own rings — after this, a trace
// export shows the full driver → server → node tree. Call it the way
// PushMetrics is called: periodically, or once after a workload.
func (cl *Client) PushTraces() error {
	spans := cl.tracer.Drain()
	if len(spans) == 0 {
		return nil
	}
	return cl.do(&Request{Op: OpTracePush, Spans: spans})
}

// ListShards retrieves a mongos's shard roster. Replica-set servers
// reject the op.
func (cl *Client) ListShards() ([]ShardInfo, error) {
	resp, err := cl.roundTrip(&Request{Op: OpListShards})
	if err != nil {
		return nil, err
	}
	defer releaseResponse(resp)
	return resp.Shards, nil
}

// ChunkMap retrieves a mongos's versioned chunk routing table.
func (cl *Client) ChunkMap() (*ChunkMapBody, error) {
	resp, err := cl.roundTrip(&Request{Op: OpChunkMap})
	if err != nil {
		return nil, err
	}
	defer releaseResponse(resp)
	return resp.Chunks, nil
}

// MoveChunk asks a mongos to live-migrate the chunk owning key to the
// given shard. It returns when the hand-off has committed.
func (cl *Client) MoveChunk(key string, toShard int) error {
	return cl.do(&Request{Op: OpMoveChunk, DocID: key, Node: toShard})
}

// OplogTail implements driver.OplogTailer over the wire: scan the
// primary's oplog after the given OpTime. The returned OpTimes are the
// primary's lastApplied and the log's truncation horizon.
func (cl *Client) OplogTail(p sim.Proc, after oplog.OpTime, max int) ([]oplog.DecodedEntry, oplog.OpTime, oplog.OpTime, error) {
	resp, err := cl.roundTrip(&Request{Op: OpOplogTail, AfterSecs: after.Secs, AfterInc: after.Inc, Limit: max})
	if err != nil {
		return nil, oplog.Zero, oplog.Zero, err
	}
	defer releaseResponse(resp)
	entries := make([]oplog.DecodedEntry, 0, len(resp.Entries))
	for i := range resp.Entries {
		eb := &resp.Entries[i]
		var kind oplog.Kind
		switch eb.Kind {
		case "insert":
			kind = oplog.KindInsert
		case "set":
			kind = oplog.KindSet
		case "delete":
			kind = oplog.KindDelete
		case "noop":
			kind = oplog.KindNoop
		default:
			return nil, oplog.Zero, oplog.Zero, errors.New("wire: unknown oplog entry kind " + eb.Kind)
		}
		entries = append(entries, oplog.DecodedEntry{
			Entry: oplog.Entry{
				TS:         oplog.OpTime{Secs: eb.Secs, Inc: eb.Inc},
				Kind:       kind,
				Collection: eb.Collection,
				DocID:      eb.DocID,
			},
			Doc: eb.Doc,
		})
	}
	return entries, optimeFrom(resp.OpSecs, resp.OpInc), optimeFrom(resp.TruncSecs, resp.TruncInc), nil
}

// ServerStatus implements driver.Conn.
func (cl *Client) ServerStatus(p sim.Proc, nodeID int) cluster.Status {
	resp, err := cl.roundTrip(&Request{Op: OpStatus, Node: nodeID})
	defer releaseResponse(resp)
	if err != nil || resp.Status == nil {
		return cluster.Status{From: nodeID}
	}
	st := cluster.Status{
		From: resp.Status.From, Primary: resp.Status.Primary,
		LeaseEpoch: resp.Status.LeaseEpoch,
	}
	for _, m := range resp.Status.Members {
		st.Members = append(st.Members, cluster.MemberStatus{
			ID: m.ID, Primary: m.Primary,
			Applied: optimeFrom(m.Secs, m.Inc),
			Leased:  m.Leased,
		})
	}
	return st
}

// ExecRead implements driver.Conn: the body runs locally against a
// remote view whose every method is one network round trip to the
// chosen node. This path is deliberately untraced — the body is small
// enough to inline, which keeps the view off the heap, and the
// sampling-off hot path must cost zero extra allocations
// (TestConcurrentWireReadAllocs). Sampled reads arrive through
// ExecReadMeta: the driver flips the coin per read, and direct callers
// who want traces originate one with Tracer().StartTrace() or
// ForceTrace() and call ExecReadMeta themselves.
func (cl *Client) ExecRead(p sim.Proc, nodeID int, fn func(v cluster.ReadView) (any, error)) (any, error) {
	view := &remoteReadView{cl: cl, node: nodeID}
	res, err := fn(view)
	if err != nil {
		return nil, err
	}
	return res, view.err
}

// ExecWrite implements driver.Conn: reads inside the body are round
// trips to the primary; mutations are buffered and committed with one
// write_batch request.
func (cl *Client) ExecWrite(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, error) {
	res, _, err := cl.ExecWriteTracked(p, fn)
	return res, err
}

// ExecReadAfter implements driver.CausalConn: every op of the body
// carries the afterClusterTime prerequisite; the returned OpTime is
// the highest node-applied time observed across the body's ops. Like
// ExecRead it is untraced and inlinable; traced causal reads go
// through ExecReadMeta.
func (cl *Client) ExecReadAfter(p sim.Proc, nodeID int, after oplog.OpTime, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, error) {
	view := &remoteReadView{cl: cl, node: nodeID, after: after}
	res, err := fn(view)
	if err != nil {
		return nil, oplog.Zero, err
	}
	return res, view.seen, view.err
}

// ExecReadMeta implements driver.TracedConn: the trace context, the
// declared staleness bound and the causal prerequisite ride on every
// round trip of the body (see execReadMeta).
func (cl *Client) ExecReadMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, error) {
	res, ts, _, err := cl.execReadMeta(p, &remoteReadView{cl: cl, node: nodeID, after: after, bound: meta.BoundSecs}, meta, fn)
	return res, ts, err
}

// ExecReadFreshMeta implements driver.FreshConn: like ExecReadMeta,
// but every round trip of the body requests the serving node's
// observed staleness (Request.WantFresh → Response.StaleSecs) and the
// worst value across the body's ops comes back as the third result —
// the driver stamps cache fills with it so the freshness-priced
// validity rule prices entries by what the node actually observed.
// Unrequested, the tag costs zero wire bytes, so plain reads are
// byte-identical.
func (cl *Client) ExecReadFreshMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, int64, error) {
	return cl.execReadMeta(p, &remoteReadView{cl: cl, node: nodeID, after: after, bound: meta.BoundSecs, wantFresh: true}, meta, fn)
}

// ExecReadLinearizableMeta implements driver.LinearizableConn: every
// round trip of the body carries read concern linearizable, so the
// serving node answers under the lease protocol (primary leader lease,
// secondary read lease, majority-confirm otherwise) and rejects with
// CodeNotLeased when it cannot — the driver maps that back through
// cluster.LeaseReject and retries at the primary.
func (cl *Client) ExecReadLinearizableMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, error) {
	res, ts, _, err := cl.execReadMeta(p, &remoteReadView{cl: cl, node: nodeID, after: after, bound: meta.BoundSecs, rc: RCLinearizable}, meta, fn)
	return res, ts, err
}

// execReadMeta runs the body against view with meta's trace context on
// every round trip, and a client.exec_read span wraps the body so the
// gap between it and the server's admission span is attributable wire
// time. The span ids are rewritten so server-side spans parent under
// the client hop. It returns the highest node-applied OpTime and the
// worst observed staleness across the body's ops.
func (cl *Client) execReadMeta(p sim.Proc, view *remoteReadView, meta cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, int64, error) {
	live := meta.Ctx.Live()
	var spanID uint64
	var start time.Duration
	if live {
		spanID = cl.tracer.NewSpanID()
		tctx := meta.Ctx
		tctx.SpanID = spanID
		view.trace = &tctx
		start = tnow(p)
	}
	res, err := fn(view)
	if live {
		attrs := []trace.Attr{{K: "node", V: strconv.Itoa(view.node)}}
		if view.rc == RCLinearizable {
			attrs = append(attrs, trace.Attr{K: "rc", V: "linearizable"})
		}
		cl.tracer.Record(trace.Span{
			Trace:  meta.Ctx.TraceID,
			ID:     spanID,
			Parent: meta.Ctx.SpanID,
			Name:   "client.exec_read",
			Node:   -1,
			Start:  start,
			Dur:    tnow(p) - start,
			Attrs:  attrs,
		})
	}
	if err != nil {
		return nil, oplog.Zero, 0, err
	}
	return res, view.seen, view.stale, view.err
}

// tnow reads the span clock: the proc's when the caller runs under an
// environment, the process-epoch clock when it does not (benchmarks
// and plain goroutines pass a nil proc).
func tnow(p sim.Proc) time.Duration {
	if p != nil {
		return p.Now()
	}
	return trace.Now()
}

// ExecWriteTracked implements driver.CausalConn: the write batch's
// commit OpTime comes back in the response. The client originates the
// trace here; a sampled write's batch request carries the context so
// the server's dispatch and primary-exec spans link into it.
func (cl *Client) ExecWriteTracked(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, oplog.OpTime, error) {
	tctx := cl.tracer.StartTrace()
	tx := &remoteWriteTxn{remoteReadView: remoteReadView{cl: cl, node: cl.PrimaryID()}}
	live := tctx.Live()
	var spanID uint64
	var start time.Duration
	if live {
		spanID = cl.tracer.NewSpanID()
		child := tctx
		child.SpanID = spanID
		tx.trace = &child
		start = tnow(p)
	}
	res, err := fn(tx)
	if err != nil {
		return nil, oplog.Zero, err
	}
	if tx.err != nil {
		return nil, oplog.Zero, tx.err
	}
	var commit oplog.OpTime
	if len(tx.muts) > 0 {
		req := &Request{Op: OpWriteBatch, Muts: tx.muts, Trace: tx.trace}
		resp, err := cl.roundTrip(req)
		if err != nil {
			return nil, oplog.Zero, err
		}
		commit = oplog.OpTime{Secs: resp.OpSecs, Inc: resp.OpInc}
		releaseResponse(resp)
	}
	if live {
		cl.tracer.Record(trace.Span{
			Trace: tctx.TraceID,
			ID:    spanID,
			Name:  "client.exec_write",
			Node:  -1,
			Start: start,
			Dur:   tnow(p) - start,
			Attrs: []trace.Attr{{K: "optime", V: commit.String()}},
		})
	}
	return res, commit, nil
}

// remoteReadView implements cluster.ReadView over the wire. Errors are
// sticky: the first failed round trip poisons the view, and ExecRead
// surfaces it. When `after` is non-zero every op carries the causal
// prerequisite, and `seen` accumulates the highest node OpTime
// returned.
type remoteReadView struct {
	cl    *Client
	node  int
	err   error
	after oplog.OpTime
	seen  oplog.OpTime

	// trace rides on every request of the body (nil when untraced).
	// It deliberately does NOT point into the view: a &view.field
	// stored into a Request would make every view escape to the heap,
	// costing the untraced fast path an allocation per read. bound is
	// the declared staleness bound the server's freshness auditor
	// checks secondary reads against.
	trace *trace.Context
	bound int64
	// rc is the read concern every op of the body carries (0 = local;
	// zero wire bytes).
	rc int
	// wantFresh asks each op for the node's observed staleness; stale
	// accumulates the worst value seen — the cache fill's price.
	wantFresh bool
	stale     int64
}

// observe folds a response's node OpTime into the view's causal token
// and, for freshness-priced reads, the worst observed staleness.
func (v *remoteReadView) observe(resp *Response) {
	ts := oplog.OpTime{Secs: resp.OpSecs, Inc: resp.OpInc}
	if v.seen.Before(ts) {
		v.seen = ts
	}
	if resp.StaleSecs > v.stale {
		v.stale = resp.StaleSecs
	}
}

// request builds the base request with the causal prerequisite, the
// trace context (only when live — an absent context is zero bytes on
// the wire) and the audited staleness bound.
func (v *remoteReadView) request(op string) *Request {
	return &Request{
		Op: op, Node: v.node, AfterSecs: v.after.Secs, AfterInc: v.after.Inc,
		BoundSecs: v.bound, Trace: v.trace, ReadConcern: v.rc, WantFresh: v.wantFresh,
	}
}

func (v *remoteReadView) fail(err error) {
	if v.err == nil && err != nil {
		v.err = err
	}
}

func (v *remoteReadView) FindByID(collection, id string) (storage.Document, bool) {
	req := v.request(OpFindByID)
	req.Collection, req.DocID = collection, id
	resp, err := v.cl.roundTrip(req)
	if err != nil {
		v.fail(err)
		return nil, false
	}
	defer releaseResponse(resp)
	v.observe(resp)
	if !resp.Found {
		return nil, false
	}
	return resp.doc, true
}

func (v *remoteReadView) FindManyByID(collection string, ids []string) []storage.Document {
	req := v.request(OpFindMany)
	req.Collection, req.IDs = collection, ids
	resp, err := v.cl.roundTrip(req)
	if err != nil {
		v.fail(err)
		return nil
	}
	defer releaseResponse(resp)
	v.observe(resp)
	return resp.docs
}

func (v *remoteReadView) Find(collection string, f storage.Filter, limit int) []storage.Document {
	req := v.request(OpFind)
	req.Collection, req.Filter, req.Limit = collection, f, limit
	resp, err := v.cl.roundTrip(req)
	if err != nil {
		v.fail(err)
		return nil
	}
	defer releaseResponse(resp)
	v.observe(resp)
	return resp.docs
}

func (v *remoteReadView) Count(collection string, f storage.Filter) int {
	req := v.request(OpCount)
	req.Collection, req.Filter = collection, f
	resp, err := v.cl.roundTrip(req)
	if err != nil {
		v.fail(err)
		return 0
	}
	defer releaseResponse(resp)
	v.observe(resp)
	return resp.Count
}

func (v *remoteReadView) AddUnits(int) {} // costs are charged server-side

// remoteWriteTxn buffers mutations client-side; ExecWrite ships them
// as one batch. Documents stay in canonical storage form, which the
// codec encodes directly.
type remoteWriteTxn struct {
	remoteReadView
	muts []Mutation
}

func (t *remoteWriteTxn) Insert(collection string, doc storage.Document) error {
	norm, err := doc.Normalized()
	if err != nil {
		return err
	}
	t.muts = append(t.muts, Mutation{Kind: "insert", Collection: collection, Doc: norm})
	return nil
}

func (t *remoteWriteTxn) Set(collection, id string, fields storage.Document) error {
	norm, err := fields.Normalized()
	if err != nil {
		return err
	}
	t.muts = append(t.muts, Mutation{Kind: "set", Collection: collection, DocID: id, Doc: norm})
	return nil
}

func (t *remoteWriteTxn) Delete(collection, id string) error {
	t.muts = append(t.muts, Mutation{Kind: "delete", Collection: collection, DocID: id})
	return nil
}

// optimeFrom rebuilds an OpTime from its wire fields.
func optimeFrom(secs int64, inc uint32) oplog.OpTime {
	return oplog.OpTime{Secs: secs, Inc: inc}
}
