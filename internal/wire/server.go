package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/obs"
	"decongestant/internal/obs/trace"
	"decongestant/internal/sim"
)

// ServerConfig tunes the server's admission control and connection
// lifecycle. The zero value disables every mechanism, which is the
// seed behavior: unlimited connections, no idle reaping, no
// backpressure, no shedding.
//
// Admission is staged. A connection is first *accepted* (or refused at
// the listener when MaxConns is hit), then each request *queues*
// against the per-connection inflight budget — when the budget is
// spent the reader simply stops pulling frames, so excess load parks
// in kernel socket buffers and flow-controls the client — and finally
// a request that would push the server past ShedInflight is *shed*:
// answered immediately with CodeOverloaded instead of dispatched, so
// clients can back off and retry while the server keeps serving the
// load it admitted.
type ServerConfig struct {
	// IdleTimeout reaps connections with no readable data and no
	// requests in service for this long. Connections stalled mid-frame
	// are reaped too — a half-written frame past the deadline means a
	// broken peer, and waiting on it pins the reader goroutine.
	IdleTimeout time.Duration
	// MaxConns caps simultaneously served connections; extras are
	// closed at accept time. 0 means no cap.
	MaxConns int
	// MaxInflightPerConn caps requests in service per connection.
	// Past the cap the connection's reader stops consuming frames
	// (TCP backpressure). 0 means no cap.
	MaxInflightPerConn int
	// ShedInflight is the server-wide in-service request count beyond
	// which new requests are shed with a retryable error. 0 disables
	// shedding.
	ShedInflight int
	// SlowOpThreshold logs any request whose service time meets it,
	// MongoDB's slowms. 0 disables the slow-op log. A slow op whose
	// request was not sampled gets a retroactive trace id so its
	// dispatch span lands in the recorder anyway (always-on-slow
	// sampling), and the log line carries that id.
	SlowOpThreshold time.Duration
	// CurrentOp maintains a registry of requests currently in dispatch,
	// exported by the current_op wire op — MongoDB's currentOp. Off by
	// default: the registry costs a mutexed map insert/delete per
	// request.
	CurrentOp bool
}

// defaultMaxConns prices status.connections.available when no
// explicit cap is configured, mirroring how mongod derives the gauge
// from its file-descriptor rlimit.
const defaultMaxConns = 1 << 16

func (c ServerConfig) connLimit() int {
	if c.MaxConns > 0 {
		return c.MaxConns
	}
	return defaultMaxConns
}

// Backend executes protocol requests for a Server. The transport layer
// (framing, admission control, pipelining, tracing spans, the
// metrics/trace/current_op export ops) is backend-agnostic; the
// backend supplies the registry and recorder those surfaces read from
// and dispatches everything else — replica-set ops for a shard server,
// routed ops for a mongos.
type Backend interface {
	// Metrics is the registry the metrics op snapshots and the server
	// registers its transport instruments in.
	Metrics() *obs.Registry
	// Tracer is the span recorder admission/dispatch spans land in and
	// the trace export ops read from.
	Tracer() *trace.Recorder
	// Inline reports whether a request can be served without waiting —
	// no sleep, no wait on replication or a remote round trip — so the
	// connection's reader may run it itself instead of spawning a
	// goroutine for it. It is the only place that rule lives. An inline
	// request's DocID aliases the frame it came in: Dispatch must not
	// keep it.
	Inline(req *Request) bool
	// Dispatch executes one non-transport request, filling resp (zeroed
	// and owned by the server, which reuses it once the response is
	// encoded). The trace context is the server's dispatch span (zero
	// when unsampled). A returned error becomes the response's Err.
	Dispatch(p sim.Proc, req *Request, tctx trace.Context, resp *Response) error
}

// Server exposes a Backend (a replica set, a mongos router — anything
// running on a real-time environment) over TCP. Connections are
// pipelined: a reader goroutine decodes frames, runs requests that
// cannot wait itself and dispatches every other one on its own proc,
// and id-tagged responses stream back in completion order — so one
// socket carries many requests in flight. A connection is served only
// after it opens with the protocol's hello. Response documents are the
// storage layer's stored encodings; responses are encoded into
// pooled buffers and flushed in bursts through one writev.
type Server struct {
	env     *sim.RealtimeEnv
	backend Backend

	// tracer is the backend's span recorder; the server records
	// admission and dispatch spans into it for sampled requests and
	// serves the trace export ops from it. curOps tracks requests
	// currently in dispatch when cfg.CurrentOp is set (nil otherwise).
	tracer *trace.Recorder
	curOps *trace.OpRegistry

	// Per-opcode request counts and service latencies, registered in
	// the cluster's registry so the metrics op reports them alongside
	// the node instruments. Built once at construction; ops outside the
	// protocol land in the "other" bucket.
	opCounts map[string]*obs.Counter
	opLat    map[string]*obs.Histogram

	// Transport instruments: frame and byte volume each way, and peers
	// refused for a bad hello or a body that failed to decode.
	framesIn   *obs.Counter
	framesOut  *obs.Counter
	flushes    *obs.Counter // writevs; frames_out / flushes is frames per write
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
	decodeErrs *obs.Counter

	// Admission-control instruments. connsCur/connsAvail are the
	// status.connections pair operators alarm on; inflightG is the
	// server-wide in-service request count the shed stage reads.
	cfg           ServerConfig
	connsCur      *obs.Gauge
	connsAvail    *obs.Gauge
	connsRejected *obs.Counter
	inflightG     *obs.Gauge
	idleClosed    *obs.Counter
	shedCount     *obs.Counter
	slowOps       *obs.Counter

	// Dispatch paths: requests run on the connection's reader versus
	// on a goroutine of their own.
	dispatchInline  *obs.Counter
	dispatchSpawned *obs.Counter

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	pushed map[string]obs.Snapshot // client snapshots by source, pre-prefixed
	done   bool
	log    *log.Logger
}

// wireOps enumerates the protocol's opcodes for instrument setup.
var wireOps = []string{
	OpTopology, OpPing, OpStatus, OpFindByID, OpFindMany, OpFind,
	OpCount, OpWriteBatch, OpMetrics, OpMetricsPush,
	OpTrace, OpCurrentOp, OpTracePush,
	OpListShards, OpChunkMap, OpOplogTail, OpMoveChunk, "other",
}

// NewServer creates a server over the given replica set with the
// zero ServerConfig — no admission control, the seed behavior. The
// replica set must have been built on env.
func NewServer(env *sim.RealtimeEnv, rs *cluster.ReplicaSet, logger *log.Logger) *Server {
	return NewServerWith(env, rs, logger, ServerConfig{})
}

// NewServerWith creates a replica-set server with explicit
// admission-control and connection-lifecycle configuration.
func NewServerWith(env *sim.RealtimeEnv, rs *cluster.ReplicaSet, logger *log.Logger, cfg ServerConfig) *Server {
	return NewBackendServer(env, newRSBackend(rs), logger, cfg)
}

// NewBackendServer creates a server over an arbitrary Backend — the
// entry point mongosd uses to put a router behind the same transport,
// admission control and observability surface a shard server has.
func NewBackendServer(env *sim.RealtimeEnv, backend Backend, logger *log.Logger, cfg ServerConfig) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &Server{
		env: env, backend: backend,
		opCounts: make(map[string]*obs.Counter, len(wireOps)),
		opLat:    make(map[string]*obs.Histogram, len(wireOps)),
		cfg:      cfg,
		conns:    map[net.Conn]struct{}{},
		pushed:   map[string]obs.Snapshot{},
		log:      logger,
	}
	s.tracer = backend.Tracer()
	if cfg.CurrentOp {
		s.curOps = trace.NewOpRegistry()
	}
	reg := backend.Metrics()
	for _, op := range wireOps {
		s.opCounts[op] = reg.Counter(obs.Name("wire.requests", "op", op))
		s.opLat[op] = reg.Histogram(obs.Name("wire.request_latency", "op", op))
	}
	s.framesIn = reg.Counter("wire.frames_in")
	s.framesOut = reg.Counter("wire.frames_out")
	s.flushes = reg.Counter("wire.flushes")
	s.dispatchInline = reg.Counter(obs.Name("wire.dispatch", "path", "inline"))
	s.dispatchSpawned = reg.Counter(obs.Name("wire.dispatch", "path", "spawned"))
	s.bytesIn = reg.Counter("wire.bytes_in")
	s.bytesOut = reg.Counter("wire.bytes_out")
	s.decodeErrs = reg.Counter("wire.decode_errors")
	s.connsCur = reg.Gauge("status.connections.current")
	s.connsAvail = reg.Gauge("status.connections.available")
	s.connsAvail.Set(int64(cfg.connLimit()))
	s.connsRejected = reg.Counter("status.connections.rejected")
	s.inflightG = reg.Gauge("status.inflight_requests")
	s.idleClosed = reg.Counter("wire.idle_closed")
	s.shedCount = reg.Counter(obs.Name("wire.requests_shed", "reason", "overload"))
	s.slowOps = reg.Counter("wire.slow_ops")
	return s
}

// setConnGauges publishes the status.connections pair after an
// accept or a close.
func (s *Server) setConnGauges(cur int) {
	s.connsCur.Set(int64(cur))
	s.connsAvail.Set(int64(s.cfg.connLimit() - cur))
}

// instruments returns the count and latency instruments for an opcode.
func (s *Server) instruments(op string) (*obs.Counter, *obs.Histogram) {
	c, ok := s.opCounts[op]
	if !ok {
		return s.opCounts["other"], s.opLat["other"]
	}
	return c, s.opLat[op]
}

// Serve accepts connections on ln until Close. It returns after the
// listener closes, and at once (closing ln) when Close came first.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.done
			s.mu.Unlock()
			if done {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.done {
			// Accepted while Close ran: Close has already swept the
			// live connections, so this one must not join them.
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if max := s.cfg.MaxConns; max > 0 && len(s.conns) >= max {
			// Accept stage: over the cap the connection is refused
			// outright. Closing without a handshake reply reads as a
			// dial failure on the client, the retryable kind.
			s.mu.Unlock()
			s.connsRejected.Inc(1)
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		cur := len(s.conns)
		s.mu.Unlock()
		s.setConnGauges(cur)
		go s.handle(conn)
	}
}

// Close stops accepting and closes every live connection.
func (s *Server) Close() {
	s.mu.Lock()
	s.done = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// handle serves one connection with request pipelining. The reader
// loop decodes frames and runs each request the backend calls inline
// (one that cannot wait) itself, on the connection's one proc; every
// other request gets its own goroutine, so a slow operation (a blocked
// afterClusterTime read, a long scan) never holds up the requests
// queued behind it. Responses carry the request id and return in
// completion order; the client matches them back to callers.
//
// An inline response is held unflushed while the next request already
// sits whole in the read buffer, so a pipelined burst leaves in one
// writev. Held responses are flushed before every point where the
// reader can block: the next socket read and the per-connection
// inflight budget. A held response does wait while the reader serves
// the next inline request, which is a point read that never sleeps.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		cur := len(s.conns)
		s.mu.Unlock()
		s.setConnGauges(cur)
	}()
	idle := s.cfg.IdleTimeout
	if idle > 0 {
		// The deadline also bounds the handshake: a peer that connects
		// and never speaks is reaped like one that goes quiet later.
		conn.SetReadDeadline(time.Now().Add(idle))
	}
	br := bufio.NewReader(conn)
	err := readHello(br)
	if err == nil {
		err = writeHello(conn)
	}
	if err != nil {
		var ne net.Error
		switch {
		case errors.As(err, &ne) && ne.Timeout():
			s.idleClosed.Inc(1)
		case errors.Is(err, errBadHello):
			// A peer that opens with anything but the hello speaks
			// some other protocol; it gets no byte back.
			s.decodeErrs.Inc(1)
			fallthrough
		case !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed):
			s.log.Printf("wire: handshake with %s: %v", conn.RemoteAddr(), err)
		}
		return
	}

	w := &connWriter{s: s, conn: conn}
	var inflight sync.WaitGroup
	var inService atomic.Int64 // this connection's requests in dispatch
	var sem chan struct{}      // queue-stage budget; nil when uncapped
	if n := s.cfg.MaxInflightPerConn; n > 0 {
		sem = make(chan struct{}, n)
	}
	// release hands back an admitted request's queue and shed slots.
	release := func() {
		if sem != nil {
			<-sem
		}
		s.inflightG.Add(-1)
		inService.Add(-1)
	}
	fr := &frameReader{r: br}
	// One proc name per connection, not per request: formatting a
	// fresh name for every dispatch shows up in allocation profiles.
	procName := "wire/req-" + conn.RemoteAddr().String()
	proc := s.env.Adhoc(procName) // the reader's, for inline requests
	held := false                 // a response waits in w for the next flush
	reply := func(resp *Response) {
		held = fr.buffered()
		w.send(resp, held)
	}
	// req is decoded into afresh each frame; inline requests use it in
	// place and spawned ones take a copy. resp is the reader's response,
	// refilled for each request it answers itself: reply encodes it
	// before the reader moves on.
	var req Request
	var resp Response
	dec := newConnDecoder()
	for {
		if held && !fr.buffered() {
			w.flush()
			held = false
		}
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		body, err := fr.next()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// The idle probe fired. A connection that is merely
				// waiting on its own slow responses is alive — extend
				// and keep reading (the resumable frameReader holds any
				// partial progress). A connection stalled mid-frame
				// with nothing in service, or fully idle, is dead
				// weight: reap it and free the gauges it pins.
				if inService.Load() > 0 && !fr.midFrame() {
					continue
				}
				s.idleClosed.Inc(1)
				break
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.log.Printf("wire: read from %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		s.framesIn.Inc(1)
		s.bytesIn.Inc(uint64(4 + len(body)))
		req = Request{}
		if err := dec.decode(body, &req); err != nil {
			// A frame that doesn't decode means a broken or hostile
			// peer; the stream has no trustworthy continuation.
			s.decodeErrs.Inc(1)
			s.log.Printf("wire: decode from %s: %v", conn.RemoteAddr(), err)
			break
		}
		// A request carrying a trace context times its admission span
		// from here: the gap to dispatch start is exactly the queue and
		// shed stages it crossed. Unsampled requests skip the clock read.
		var arrive time.Duration
		if req.Trace != nil {
			arrive = s.env.Now()
		}
		// Queue stage: when this connection's budget is spent, block
		// here instead of reading further frames — unread requests
		// back up into socket buffers and flow-control the client.
		if sem != nil {
			select {
			case sem <- struct{}{}:
			default:
				if held {
					w.flush()
					held = false
				}
				sem <- struct{}{}
			}
		}
		// Shed stage: past the server-wide inflight ceiling the
		// request is answered without being dispatched, so admitted
		// work keeps its latency while the excess gets an immediate
		// retryable error instead of a place in line.
		if max := s.cfg.ShedInflight; max > 0 && s.inflightG.Value() >= int64(max) {
			if sem != nil {
				<-sem
			}
			s.shedCount.Inc(1)
			resp = Response{ID: req.ID, Err: "wire: server overloaded", Code: CodeOverloaded}
			reply(&resp)
			continue
		}
		inService.Add(1)
		s.inflightG.Add(1)
		if s.backend.Inline(&req) {
			s.dispatchInline.Inc(1)
			resp = Response{}
			if !s.execute(proc, &req, &resp, arrive, release) {
				break // the environment shut down
			}
			reply(&resp)
			continue
		}
		s.dispatchSpawned.Inc(1)
		inflight.Add(1)
		r := req
		r.DocID = strings.Clone(r.DocID) // the frame is reused
		go func() {
			defer inflight.Done()
			resp := &Response{}
			if s.execute(s.env.Adhoc(procName), &r, resp, arrive, release) {
				w.send(resp, false)
			}
		}()
	}
	// Spawned requests flush their own responses; only held ones wait.
	w.flush()
	inflight.Wait()
}

// execute serves one admitted request into resp — admission span,
// dispatch, instruments, slow-op log — then hands its admission slots
// back through release. It returns false when the environment shut
// down while the request was in service.
func (s *Server) execute(proc sim.Proc, r *Request, resp *Response, arrive time.Duration, release func()) (served bool) {
	defer func() {
		release()
		// The environment may shut down while a request is in flight;
		// swallow the stop signal like Spawn's wrapper does.
		if v := recover(); v != nil && !sim.ErrStopped(v) {
			panic(v)
		}
	}()
	count, lat := s.instruments(r.Op)
	start := proc.Now()
	var tctx trace.Context
	if r.Trace != nil {
		tctx = *r.Trace
	}
	var dispatchID uint64
	if tctx.Live() {
		s.tracer.Record(trace.Span{
			Trace:  tctx.TraceID,
			ID:     s.tracer.NewSpanID(),
			Parent: tctx.SpanID,
			Name:   "server.admission",
			Node:   -1,
			Start:  arrive,
			Dur:    start - arrive,
		})
		dispatchID = s.tracer.NewSpanID()
	}
	var opID uint64
	if s.curOps != nil {
		opID = s.curOps.Register(r.Op, r.Collection, r.Node, tctx.TraceID, start)
	}
	// Node-level spans hang off the dispatch span, not the client's, so
	// the tree reads admission → dispatch → exec.
	child := tctx
	child.SpanID = dispatchID
	s.dispatch(proc, r, child, resp)
	if s.curOps != nil {
		s.curOps.Done(opID)
	}
	count.Inc(1)
	dur := proc.Now() - start
	lat.Observe(dur)
	slow := s.cfg.SlowOpThreshold > 0 && dur >= s.cfg.SlowOpThreshold
	if slow && !tctx.Live() {
		// Always-on-slow sampling: the op ran untraced, so its
		// sub-spans are gone, but a retroactive id makes the dispatch
		// span below land in the recorder and gives the log line
		// something to query.
		tctx = s.tracer.ForceTrace()
		dispatchID = s.tracer.NewSpanID()
	}
	if tctx.Live() {
		s.tracer.Record(trace.Span{
			Trace:  tctx.TraceID,
			ID:     dispatchID,
			Parent: tctx.SpanID,
			Name:   "server.dispatch",
			Node:   r.Node,
			Start:  start,
			Dur:    dur,
			Attrs:  []trace.Attr{{K: "op", V: r.Op}, {K: "coll", V: r.Collection}},
		})
	}
	if slow {
		s.slowOps.Inc(1)
		s.log.Printf("wire: slow op op=%s coll=%q node=%d id=%d dur=%s err=%q trace=%s route=%s",
			r.Op, r.Collection, r.Node, r.ID, dur, resp.Err,
			trace.IDString(tctx.TraceID), routeString(r.Trace))
	}
	resp.ID = r.ID
	return true
}

// connWriter is a connection's response path, shared by its reader and
// the goroutines of its spawned requests. Whichever goroutine finishes
// a request encodes the response into a pooled buffer and appends it
// here; the first sender to find no write in progress becomes the
// flusher and hands every queued frame to the kernel as one writev
// (net.Buffers), looping while senders that arrived mid-write left
// more behind. No frame in a burst pays a syscall of its own. On a
// write error it closes the connection, which unblocks the reader, and
// drops every later frame.
type connWriter struct {
	s    *Server
	conn net.Conn

	mu       sync.Mutex
	frames   net.Buffers // queued frames, in completion order
	pooled   []*[]byte   // their pool buffers, returned after the write
	spare    net.Buffers // the flusher's batch slices, swapped with the
	spareBuf []*[]byte   // queue so steady-state flushes allocate nothing
	wv       net.Buffers // the batch in writev; WriteTo consumes it
	flushing bool        // a sender is writing and will pick up new frames
	broken   bool
}

// send queues one response. Unless hold is set it also flushes, or
// leaves the queue to the flush already in progress.
func (w *connWriter) send(resp *Response, hold bool) {
	p := getBuf()
	buf, err := w.appendFrame((*p)[:0], resp)
	if err != nil {
		// Encoding failed (an unencodable document, an oversized
		// frame): the caller still deserves an answer.
		if buf, err = w.appendFrame((*p)[:0], &Response{ID: resp.ID, Err: err.Error()}); err != nil {
			putBuf(p)
			return
		}
	}
	*p = buf
	w.mu.Lock()
	if w.broken {
		w.mu.Unlock()
		putBuf(p)
		return
	}
	w.frames = append(w.frames, buf)
	w.pooled = append(w.pooled, p)
	w.s.framesOut.Inc(1)
	if hold {
		w.mu.Unlock()
		return
	}
	w.flushLocked()
}

func (w *connWriter) appendFrame(dst []byte, resp *Response) ([]byte, error) {
	buf, err := encodeResponse(beginFrame(dst), resp)
	if err == nil {
		err = finishFrame(buf, 0)
	}
	return buf, err
}

// flush writes every queued frame, or leaves them to the flush already
// in progress.
func (w *connWriter) flush() {
	w.mu.Lock()
	w.flushLocked()
}

// flushLocked is entered with mu held and returns with it released.
func (w *connWriter) flushLocked() {
	if w.flushing {
		w.mu.Unlock()
		return
	}
	w.flushing = true
	for len(w.frames) > 0 && !w.broken {
		batch, pooled := w.frames, w.pooled
		w.frames, w.pooled = w.spare, w.spareBuf
		w.mu.Unlock()
		var total uint64
		for _, f := range batch {
			total += uint64(len(f))
		}
		w.wv = batch
		_, err := w.wv.WriteTo(w.conn)
		w.s.bytesOut.Inc(total)
		w.s.flushes.Inc(1)
		if err != nil {
			w.s.log.Printf("wire: write to %s: %v", w.conn.RemoteAddr(), err)
			w.conn.Close()
		}
		recycle(batch, pooled)
		w.mu.Lock()
		w.spare, w.spareBuf = batch[:0], pooled[:0]
		if err != nil {
			w.broken = true
			recycle(w.frames, w.pooled)
			w.frames, w.pooled = w.frames[:0], w.pooled[:0]
		}
	}
	w.flushing = false
	w.mu.Unlock()
}

// recycle returns a written or dropped batch's buffers to the pool and
// clears the slices, which live on as the next batch's.
func recycle(frames net.Buffers, pooled []*[]byte) {
	for _, p := range pooled {
		putBuf(p)
	}
	clear(frames)
	clear(pooled)
}

// routeString renders the balancer decision snapshot a request's trace
// context carried, for the slow-op log. "-" means the request rode
// without one — either sampling was off (the context costs zero bytes
// then, so no snapshot travels) or the read was not balancer-routed.
func routeString(c *trace.Context) string {
	if c == nil || c.Route == nil {
		return "-"
	}
	r := c.Route
	return fmt.Sprintf("pref=%s reason=%s frac=%d stale=%d gated=%t",
		r.Pref, r.Reason, r.FracPct, r.StaleSecs, r.Gated)
}

// CurrentOps snapshots the requests currently in dispatch, longest
// running first. Nil when ServerConfig.CurrentOp is off.
func (s *Server) CurrentOps() []trace.OpInfo {
	if s.curOps == nil {
		return nil
	}
	return s.curOps.Snapshot(s.env.Now())
}

// dispatch executes one request into resp: the transport-owned export
// ops (metrics, trace, current_op and their push counterparts) are
// served here against the server's own state, everything else goes to
// the backend. Backends route read results through
// cluster.EncodedReadView when the serving view offers it, so
// responses carry each document's stored BSON-lite encoding
// (rawDoc/rawDocs) and the write loop splices bytes instead of
// re-serializing.
func (s *Server) dispatch(p sim.Proc, req *Request, tctx trace.Context, resp *Response) {
	switch req.Op {
	case OpMetrics:
		snap := s.backend.Metrics().Snapshot()
		s.mu.Lock()
		others := make([]obs.Snapshot, 0, len(s.pushed))
		for _, ps := range s.pushed {
			others = append(others, ps)
		}
		s.mu.Unlock()
		merged := snap.Merge(others...)
		resp.Metrics = &merged
	case OpTrace:
		// Export spans from the recorder: a hex trace id in DocID
		// selects one trace (ring spans plus any pinned copies); no id
		// returns the most recent spans across all rings, newest first,
		// capped so one export frame cannot balloon.
		if req.DocID != "" {
			id, err := trace.ParseID(req.DocID)
			if err != nil {
				resp.Err = fmt.Sprintf("wire: bad trace id %q", req.DocID)
				return
			}
			resp.Spans = s.tracer.TraceSpans(id)
			return
		}
		limit := req.Limit
		if limit <= 0 || limit > 1024 {
			limit = 256
		}
		resp.Spans = s.tracer.Recent(limit)
	case OpCurrentOp:
		resp.Ops = s.CurrentOps()
	case OpTracePush:
		// Clients fold their locally recorded spans (driver/session
		// hops run client-side) into the server's recorder so a trace
		// export shows the whole causal tree.
		s.tracer.Import(req.Spans)
	case OpMetricsPush:
		if req.Snapshot == nil {
			resp.Err = "wire: metrics_push without a snapshot"
			return
		}
		src := req.Source
		if src == "" {
			src = "client"
		}
		s.mu.Lock()
		s.pushed[src] = req.Snapshot.Prefixed(src + ".")
		s.mu.Unlock()
	default:
		if err := s.backend.Dispatch(p, req, tctx, resp); err != nil {
			resp.Err = err.Error()
			// A lease rejection is a typed retryable error: code it so
			// the remote driver falls back to the primary exactly like
			// the in-process one (the reason rides in the message).
			if _, ok := cluster.LeaseReject(err); ok {
				resp.Code = CodeNotLeased
			}
		}
	}
}
