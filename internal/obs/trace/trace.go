// Package trace provides lightweight, allocation-conscious operation
// tracing for the Decongestant stack: compact trace contexts that ride
// the wire with each sampled request, spans recorded into per-node
// bounded rings on every hop (driver read, balancer decision, server
// admission/dispatch, node exec, w:majority wait), and a live
// currentOp registry of in-flight server operations.
//
// The design goal is that tracing costs nothing when it is off: a
// zero-valued Context is "not sampled", carries zero wire bytes, and
// every hot-path hook is a single comparison against
// it. Sampling is probabilistic at the originator (driver/session or
// wire client) plus always-on-slow at the server, which retroactively
// assigns a trace id to any op that crossed the slow-op threshold so
// its dispatch span is retrievable even when the client did not sample.
package trace

import "time"

// Route is the balancer's routing-decision snapshot linked into a
// sampled op's trace context: which preference the biased coin chose,
// why the balance fraction was where it was (the period-end reason
// code), and the staleness estimate the gate saw at decision time.
type Route struct {
	Pref      string `json:"pref"`
	Reason    string `json:"reason,omitempty"`
	FracPct   int    `json:"frac_pct"`
	StaleSecs int64  `json:"stale_secs"`
	Gated     bool   `json:"gated,omitempty"`
}

// Context is the compact trace context propagated end-to-end with one
// operation. The zero value means "not sampled" and every propagation
// hook treats it as free to ignore. SpanID is the parent span for the
// next hop; Route, when present, is the balancer decision that routed
// the op (attached by the core router, read back by the server's
// slow-op log).
type Context struct {
	TraceID uint64 `json:"tid"`
	SpanID  uint64 `json:"sid,omitempty"`
	Route   *Route `json:"route,omitempty"`
}

// Live reports whether the operation is sampled: only live contexts
// cost anything downstream.
func (c Context) Live() bool { return c.TraceID != 0 }

// Attr is one key/value annotation on a span. A fixed struct (rather
// than a map) keeps span recording to a single slice allocation.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Span is one timed hop of a traced operation. Node is the serving
// replica for node-local spans and -1 for client/driver/server-side
// spans that precede node selection. Start is the recorder-local
// monotonic clock (the sim environment's Now for in-process spans);
// span trees from different processes are ordered by parent links, not
// by comparing Start across processes.
type Span struct {
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Node   int           `json:"node"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

var epoch = time.Now()

// Now is the wall-clock span timestamp for recorders running outside a
// sim environment (the wire client): monotonic time since process
// start, matching the shape (not the base) of sim time.
func Now() time.Duration { return time.Since(epoch) }
