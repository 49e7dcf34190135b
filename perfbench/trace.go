package main

import (
	"sync/atomic"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/obs/trace"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/wire"
)

// Spans are recorded by the benchmark's own code, around its calls into
// each layer: a root op span around every workload.Executor call, a
// driver span around every driver.Client call, and a wire.client span
// around every call the driver makes into the *wire.Client (through
// tracedConn). Server-side time comes from the program's registry.

type spanKind int

const (
	kOpRead spanKind = iota
	kOpWrite
	kDriverRead
	kDriverWrite
	kWireRead
	kWireWrite
	nKinds
)

var spanEpoch = time.Now()

type span struct {
	kind       spanKind
	parent     int32
	start, end time.Duration
}

// spanLog holds one client goroutine's spans in memory; it is never
// shared, so it needs no lock.
type spanLog struct {
	spans []span
	open  []int32
}

func (l *spanLog) begin(k spanKind) int32 {
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{kind: k, parent: parent, start: time.Since(spanEpoch)})
	l.open = append(l.open, id)
	return id
}

func (l *spanLog) finish(id int32) {
	l.spans[id].end = time.Since(spanEpoch)
	l.open = l.open[:len(l.open)-1]
}

// tracedProc is a client's proc carrying its span log; the executor and
// the connection shim find the log through the proc the driver passes
// down unchanged.
type tracedProc struct {
	sim.Proc
	log *spanLog
}

func spanBegin(p sim.Proc, k spanKind) int32 {
	if tp, ok := p.(*tracedProc); ok {
		return tp.log.begin(k)
	}
	return -1
}

func spanEnd(p sim.Proc, id int32) {
	if id < 0 {
		return
	}
	p.(*tracedProc).log.finish(id)
}

// layerTimes sums span durations and self times (duration minus the
// part covered by child spans) per kind.
type layerTimes struct {
	count [nKinds]int64
	total [nKinds]time.Duration
	self  [nKinds]time.Duration
}

func (lt *layerTimes) add(l *spanLog) {
	child := make([]time.Duration, len(l.spans))
	for i := len(l.spans) - 1; i >= 0; i-- {
		s := l.spans[i]
		if s.end == 0 {
			continue
		}
		d := s.end - s.start
		if s.parent >= 0 {
			child[s.parent] += d
		}
		lt.count[s.kind]++
		lt.total[s.kind] += d
		lt.self[s.kind] += d - child[i]
	}
}

// meanUS is the mean span duration of a kind, in microseconds.
func (lt *layerTimes) meanUS(k spanKind) float64 {
	if lt.count[k] == 0 {
		return 0
	}
	return us(lt.total[k]) / float64(lt.count[k])
}

// selfUS is the mean self time of a kind, in microseconds.
func (lt *layerTimes) selfUS(k spanKind) float64 {
	if lt.count[k] == 0 {
		return 0
	}
	return us(lt.self[k]) / float64(lt.count[k])
}

// tracingExec is the traced run's workload.Executor: it records a
// driver span around each driver.Client call.
type tracingExec struct {
	client *driver.Client
	pref   driver.ReadPref
}

func (e tracingExec) Read(p sim.Proc, fn func(v cluster.ReadView) (any, error)) (any, driver.ReadPref, time.Duration, error) {
	id := spanBegin(p, kDriverRead)
	res, _, lat, err := e.client.Read(p, driver.ReadOptions{Pref: e.pref}, fn)
	spanEnd(p, id)
	return res, e.pref, lat, err
}

func (e tracingExec) Write(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, time.Duration, error) {
	id := spanBegin(p, kDriverWrite)
	res, lat, err := e.client.Write(p, fn)
	spanEnd(p, id)
	return res, lat, err
}

// Shim methods, for the per-method call counts.
const (
	mNodeIDs = iota
	mPrimaryID
	mZone
	mExecRead
	mExecWrite
	mPing
	mServerStatus
	mExecReadAfter
	mExecWriteTracked
	mExecReadMeta
	mExecReadLinearizableMeta
	mExecReadFreshMeta
	mOplogTail
	mTracer
	nMethods
)

// tracedConn is a driver.Conn around *wire.Client that records a
// wire.client span around every call carrying a read or write body. It
// implements every capability interface the wire client does, so the
// driver's type assertions take the same branches either way.
type tracedConn struct {
	wc    *wire.Client
	calls [nMethods]atomic.Int64
}

var (
	_ driver.Conn             = (*tracedConn)(nil)
	_ driver.CausalConn       = (*tracedConn)(nil)
	_ driver.TracedConn       = (*tracedConn)(nil)
	_ driver.TraceProvider    = (*tracedConn)(nil)
	_ driver.LinearizableConn = (*tracedConn)(nil)
	_ driver.OplogTailer      = (*tracedConn)(nil)
	_ driver.FreshConn        = (*tracedConn)(nil)
)

func (c *tracedConn) count(m int) { c.calls[m].Add(1) }

func (c *tracedConn) NodeIDs() []int { c.count(mNodeIDs); return c.wc.NodeIDs() }

func (c *tracedConn) PrimaryID() int { c.count(mPrimaryID); return c.wc.PrimaryID() }

func (c *tracedConn) Zone(id int) string { c.count(mZone); return c.wc.Zone(id) }

func (c *tracedConn) Ping(p sim.Proc, nodeID int) time.Duration {
	c.count(mPing)
	return c.wc.Ping(p, nodeID)
}

func (c *tracedConn) ServerStatus(p sim.Proc, nodeID int) cluster.Status {
	c.count(mServerStatus)
	return c.wc.ServerStatus(p, nodeID)
}

func (c *tracedConn) Tracer() *trace.Recorder { c.count(mTracer); return c.wc.Tracer() }

func (c *tracedConn) ExecRead(p sim.Proc, nodeID int, fn func(v cluster.ReadView) (any, error)) (any, error) {
	c.count(mExecRead)
	id := spanBegin(p, kWireRead)
	res, err := c.wc.ExecRead(p, nodeID, fn)
	spanEnd(p, id)
	return res, err
}

func (c *tracedConn) ExecWrite(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, error) {
	c.count(mExecWrite)
	id := spanBegin(p, kWireWrite)
	res, err := c.wc.ExecWrite(p, fn)
	spanEnd(p, id)
	return res, err
}

func (c *tracedConn) ExecReadAfter(p sim.Proc, nodeID int, after oplog.OpTime, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, error) {
	c.count(mExecReadAfter)
	id := spanBegin(p, kWireRead)
	res, ts, err := c.wc.ExecReadAfter(p, nodeID, after, fn)
	spanEnd(p, id)
	return res, ts, err
}

func (c *tracedConn) ExecWriteTracked(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, oplog.OpTime, error) {
	c.count(mExecWriteTracked)
	id := spanBegin(p, kWireWrite)
	res, ts, err := c.wc.ExecWriteTracked(p, fn)
	spanEnd(p, id)
	return res, ts, err
}

func (c *tracedConn) ExecReadMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, error) {
	c.count(mExecReadMeta)
	id := spanBegin(p, kWireRead)
	res, ts, err := c.wc.ExecReadMeta(p, nodeID, after, meta, fn)
	spanEnd(p, id)
	return res, ts, err
}

func (c *tracedConn) ExecReadLinearizableMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, error) {
	c.count(mExecReadLinearizableMeta)
	id := spanBegin(p, kWireRead)
	res, ts, err := c.wc.ExecReadLinearizableMeta(p, nodeID, after, meta, fn)
	spanEnd(p, id)
	return res, ts, err
}

func (c *tracedConn) ExecReadFreshMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, int64, error) {
	c.count(mExecReadFreshMeta)
	id := spanBegin(p, kWireRead)
	res, ts, stale, err := c.wc.ExecReadFreshMeta(p, nodeID, after, meta, fn)
	spanEnd(p, id)
	return res, ts, stale, err
}

func (c *tracedConn) OplogTail(p sim.Proc, after oplog.OpTime, max int) ([]oplog.DecodedEntry, oplog.OpTime, oplog.OpTime, error) {
	c.count(mOplogTail)
	return c.wc.OplogTail(p, after, max)
}
