package driver

import (
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
)

// CausalConn is the optional connection capability backing causally
// consistent sessions: reads that wait for a prerequisite OpTime and
// writes that report their commit OpTime. The in-process replica set
// implements it; connections without it degrade sessions to plain
// reads (documented on Session).
type CausalConn interface {
	Conn
	ExecReadAfter(p sim.Proc, nodeID int, after oplog.OpTime, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, error)
	ExecWriteTracked(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, oplog.OpTime, error)
}

// Statically assert the in-process replica set provides causality:
// method promotion makes WrapCluster's conn a CausalConn.
var _ CausalConn = (*clusterConn)(nil)

// Session provides MongoDB-style causally consistent session
// guarantees on top of a Client: every read observes at least the
// effects of the session's previous writes (read-your-writes) and of
// previously read states (monotonic reads), even when routed to a
// secondary — the read simply waits until that secondary has applied
// the session's operationTime, exactly as afterClusterTime does.
//
// The paper's Decongestant treats reads individually and points to
// this MongoDB capability for applications that need session
// guarantees (§1); Session is that capability layered over the same
// router-compatible connection.
type Session struct {
	client *Client
	opTime oplog.OpTime
}

// NewSession starts a session. If the client's connection implements
// CausalConn the session enforces causal consistency; otherwise reads
// behave like plain Client reads.
func (c *Client) NewSession() *Session { return &Session{client: c} }

// Causal reports whether the session actually enforces causal
// consistency.
func (s *Session) Causal() bool { return s.client.causal != nil }

// OperationTime returns the session's causal token.
func (s *Session) OperationTime() oplog.OpTime { return s.opTime }

// advance moves the token forward.
func (s *Session) advance(ts oplog.OpTime) {
	if s.opTime.Before(ts) {
		s.opTime = ts
	}
}

// Read routes a read with the given options; under a causal connection
// it waits at the target node for the session's operationTime before
// executing, and advances the token to the node's applied time. The
// session originates the trace sampling decision like Client.Read.
// Pref Linearizable composes with the token: a leased secondary first
// waits for it, then serves under its lease, and a rejection falls back
// to the primary as for Client.Read. No other preference falls back.
func (s *Session) Read(p sim.Proc, opts ReadOptions, fn func(v cluster.ReadView) (any, error)) (any, int, time.Duration, error) {
	c := s.client
	if c.causal == nil {
		return c.Read(p, opts, fn)
	}
	res, err := c.read(p, ReadRequest{ReadOptions: opts, Trace: c.tracer.StartTrace(), After: s.opTime}, s, fn)
	return res.Value, res.Node, res.Latency, err
}

// Write runs a write transaction and advances the session token to its
// commit time, so subsequent session reads (anywhere) observe it.
func (s *Session) Write(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, time.Duration, error) {
	causal := s.client.causal
	if causal == nil {
		return s.client.Write(p, fn)
	}
	start := p.Now()
	if s.client.cache != nil {
		rec := &invalidatingTxn{}
		res, ts, err := causal.ExecWriteTracked(p, func(tx cluster.WriteTxn) (any, error) {
			rec.WriteTxn = tx
			return fn(rec)
		})
		if err == nil {
			s.client.invalidateKeys(rec.keys)
			s.advance(ts)
		}
		return res, p.Now() - start, err
	}
	res, ts, err := causal.ExecWriteTracked(p, fn)
	if err == nil {
		s.advance(ts)
	}
	return res, p.Now() - start, err
}
