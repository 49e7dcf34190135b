package wire

import (
	"fmt"

	"decongestant/internal/cluster"
	"decongestant/internal/obs"
	"decongestant/internal/obs/trace"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// rsBackend serves the replica-set side of the protocol: the op set a
// shard server (replsetd) answers. It is the Backend NewServer wraps a
// *cluster.ReplicaSet in.
type rsBackend struct {
	rs *cluster.ReplicaSet
	// sleepless is set when the deployment models no service time and
	// no network delay, so nothing a read or a w:1 write waits on — the
	// node's CPU slot, its locks — is ever held across a sleep.
	sleepless bool
}

func newRSBackend(rs *cluster.ReplicaSet) *rsBackend {
	cfg := rs.Config()
	return &rsBackend{rs: rs, sleepless: cfg.ReadCost <= 0 && cfg.WriteCost <= 0 &&
		cfg.ApplyCost <= 0 && cfg.StatusCost <= 0 && cfg.GetMoreCost <= 0 &&
		cfg.RTTSameZone <= 0 && cfg.RTTCrossZoneBase <= 0 && cfg.RTTCrossZoneSpread <= 0}
}

func (b *rsBackend) Metrics() *obs.Registry  { return b.rs.Metrics() }
func (b *rsBackend) Tracer() *trace.Recorder { return b.rs.Tracer() }

// Inline implements Backend. On a deployment that never sleeps, two
// ops run on the connection's reader. A point read qualifies when it
// has no afterClusterTime prerequisite and no linearizable confirm
// round. A one-mutation write batch qualifies unless the primary's
// flow control would stall it now: on the wire it is always w:1, so it
// waits only on bounded critical sections — a CPU slot (no slot holder
// ever waits, since causal and linearizable waits come before the
// slot) and, as a group-commit follower, the leader's locked commit.
// The flow-control check and execWrite's own are two steps, so a write
// classified just before the lag crosses FlowControlLagSecs still
// sleeps one FlowControlDelay on the reader (DESIGN.md §8 accepts
// this). Larger batches, and batch, filter and count reads, keep their
// own goroutine: their work is bounded only by the request, and a long
// one on the reader would stall every request pipelined behind it.
func (b *rsBackend) Inline(req *Request) bool {
	if !b.sleepless {
		return false
	}
	switch req.Op {
	case OpFindByID:
		return req.AfterSecs == 0 && req.AfterInc == 0 && req.ReadConcern != RCLinearizable
	case OpWriteBatch:
		return len(req.Muts) == 1 && !b.rs.WriteThrottled()
	}
	return false
}

// execRead runs a read op, honoring an afterClusterTime prerequisite
// when the request carries one, and returns the node's applied OpTime.
// The trace context and declared staleness bound travel into the
// cluster layer, which records the node-exec span and audits observed
// staleness on secondary-served reads.
func (b *rsBackend) execRead(p sim.Proc, req *Request, tctx trace.Context, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, int64, error) {
	after := oplog.OpTime{Secs: req.AfterSecs, Inc: req.AfterInc}
	meta := cluster.ReadMeta{Ctx: tctx, BoundSecs: req.BoundSecs}
	if req.ReadConcern == RCLinearizable {
		res, ts, err := b.rs.ExecReadLinearizableMeta(p, req.Node, after, meta, fn)
		return res, ts, 0, err
	}
	if req.WantFresh {
		// The caller is filling a freshness-priced cache: report the
		// staleness the serving node observed (Response.StaleSecs).
		return b.rs.ExecReadFreshMeta(p, req.Node, after, meta, fn)
	}
	res, ts, err := b.rs.ExecReadMeta(p, req.Node, after, meta, fn)
	return res, ts, 0, err
}

// Dispatch implements Backend for a replica set.
func (b *rsBackend) Dispatch(p sim.Proc, req *Request, tctx trace.Context) *Response {
	resp := &Response{}
	fail := func(err error) *Response {
		resp.Err = err.Error()
		// A lease rejection is a typed retryable error: code it so the
		// remote driver falls back to the primary exactly like the
		// in-process one (the reason rides in the message).
		if _, ok := cluster.LeaseReject(err); ok {
			resp.Code = CodeNotLeased
		}
		return resp
	}
	if req.Node < 0 || req.Node >= len(b.rs.NodeIDs()) {
		switch req.Op {
		case OpTopology, OpWriteBatch, OpOplogTail:
			// Not addressed to a node.
		default:
			return fail(fmt.Errorf("wire: bad node %d", req.Node))
		}
	}
	switch req.Op {
	case OpTopology:
		topo := &Topology{Primary: b.rs.PrimaryID()}
		for _, id := range b.rs.NodeIDs() {
			topo.Zones = append(topo.Zones, b.rs.Zone(id))
		}
		resp.Topo = topo
	case OpPing:
		if b.rs.Ping(p, req.Node) < 0 {
			return fail(cluster.ErrNodeDown)
		}
	case OpStatus:
		st := b.rs.ServerStatus(p, req.Node)
		body := &StatusBody{From: st.From, Primary: st.Primary, LeaseEpoch: st.LeaseEpoch}
		for _, m := range st.Members {
			body.Members = append(body.Members, Member{
				ID: m.ID, Primary: m.Primary, Secs: m.Applied.Secs, Inc: m.Applied.Inc,
				Leased: m.Leased,
			})
		}
		resp.Status = body
	case OpFindByID:
		res, ts, stale, err := b.execRead(p, req, tctx, func(v cluster.ReadView) (any, error) {
			if ev, ok := v.(cluster.EncodedReadView); ok {
				if e, found := ev.FindByIDEncoded(req.Collection, req.DocID); found {
					return e, nil
				}
				return nil, nil
			}
			d, ok := v.FindByID(req.Collection, req.DocID)
			if !ok {
				return nil, nil
			}
			return d, nil
		})
		if err != nil {
			return fail(err)
		}
		resp.OpSecs, resp.OpInc, resp.StaleSecs = ts.Secs, ts.Inc, stale
		switch d := res.(type) {
		case *storage.EncodedDoc:
			resp.Found = true
			resp.rawDoc = d.Bytes()
		case storage.Document:
			resp.SetDoc(d)
		}
	case OpFindMany:
		res, ts, stale, err := b.execRead(p, req, tctx, func(v cluster.ReadView) (any, error) {
			if ev, ok := v.(cluster.EncodedReadView); ok {
				return ev.FindManyByIDEncoded(req.Collection, req.IDs), nil
			}
			return v.FindManyByID(req.Collection, req.IDs), nil
		})
		if err != nil {
			return fail(err)
		}
		resp.OpSecs, resp.OpInc, resp.StaleSecs = ts.Secs, ts.Inc, stale
		fillDocs(resp, res)
	case OpFind:
		res, ts, stale, err := b.execRead(p, req, tctx, func(v cluster.ReadView) (any, error) {
			if ev, ok := v.(cluster.EncodedReadView); ok {
				return ev.FindEncoded(req.Collection, req.Filter, req.Limit), nil
			}
			return v.Find(req.Collection, req.Filter, req.Limit), nil
		})
		if err != nil {
			return fail(err)
		}
		resp.OpSecs, resp.OpInc, resp.StaleSecs = ts.Secs, ts.Inc, stale
		fillDocs(resp, res)
	case OpCount:
		res, ts, stale, err := b.execRead(p, req, tctx, func(v cluster.ReadView) (any, error) {
			return v.Count(req.Collection, req.Filter), nil
		})
		if err != nil {
			return fail(err)
		}
		resp.OpSecs, resp.OpInc, resp.StaleSecs = ts.Secs, ts.Inc, stale
		resp.Count = res.(int)
	case OpWriteBatch:
		_, commitTS, err := b.rs.ExecWriteConcernMeta(p, cluster.W1, cluster.ReadMeta{Ctx: tctx}, func(tx cluster.WriteTxn) (any, error) {
			return nil, applyMutations(tx, req.Muts)
		})
		if err != nil {
			return fail(err)
		}
		resp.OpSecs, resp.OpInc = commitTS.Secs, commitTS.Inc
	case OpOplogTail:
		after := oplog.OpTime{Secs: req.AfterSecs, Inc: req.AfterInc}
		max := req.Limit
		if max <= 0 || max > 4096 {
			max = 512
		}
		entries, applied, trunc, err := b.rs.OplogTail(p, after, max)
		if err != nil {
			return fail(err)
		}
		fillEntries(resp, entries)
		resp.OpSecs, resp.OpInc = applied.Secs, applied.Inc
		resp.TruncSecs, resp.TruncInc = trunc.Secs, trunc.Inc
	default:
		return fail(fmt.Errorf("wire: unknown op %q", req.Op))
	}
	return resp
}

// applyMutations replays a write batch into a transaction — shared by
// the replica-set backend and a mongos's per-shard sub-batches.
func applyMutations(tx cluster.WriteTxn, muts []Mutation) error {
	for i := range muts {
		m := &muts[i]
		switch m.Kind {
		case "insert":
			if err := tx.Insert(m.Collection, m.Doc); err != nil {
				return err
			}
		case "set":
			if err := tx.Set(m.Collection, m.DocID, m.Doc); err != nil {
				return err
			}
		case "delete":
			if err := tx.Delete(m.Collection, m.DocID); err != nil {
				return err
			}
		default:
			return fmt.Errorf("wire: unknown mutation kind %q", m.Kind)
		}
	}
	return nil
}

// fillEntries converts decoded oplog entries to their wire form.
func fillEntries(resp *Response, entries []oplog.DecodedEntry) {
	if len(entries) == 0 {
		return
	}
	out := make([]EntryBody, 0, len(entries))
	for i := range entries {
		e := &entries[i]
		out = append(out, EntryBody{
			Secs: e.TS.Secs, Inc: e.TS.Inc, Kind: e.Kind.String(),
			Collection: e.Collection, DocID: e.DocID, Doc: e.Doc,
		})
	}
	resp.Entries = out
}

// fillDocs routes a multi-document read result — encoded wrappers or
// plain documents — to the response's raw or typed field.
func fillDocs(resp *Response, res any) {
	switch ds := res.(type) {
	case []*storage.EncodedDoc:
		raw := make([][]byte, 0, len(ds))
		for _, e := range ds {
			raw = append(raw, e.Bytes())
		}
		resp.rawDocs = raw
	case []storage.Document:
		resp.docs = ds
	}
}
