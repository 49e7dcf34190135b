package sharding

import (
	"fmt"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/obs/trace"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/wire"
)

// Mongos is the wire-facing query router: it implements wire.Backend,
// so a wire.Server (NewBackendServer) exposes a sharded cluster
// behind the exact protocol a single replica set speaks. Unmodified
// driver.Clients and wire.Clients connect to it and see a one-node
// "replica set" whose reads and writes are routed by shard key across
// the real shards, each shard driven by its own Decongestant system.
//
// Routed ops keep their semantics with two documented exceptions:
// causal tokens (afterClusterTime) do not propagate through the
// router, and cross-shard write batches are split per shard and are
// not atomic across shards.
type Mongos struct {
	env    sim.Env
	router *Router
	shards []wire.ShardInfo
}

// NewMongos builds a router over pre-dialed shard connections and
// wraps it for wire serving. addrs (optional, may be nil) are the
// shard addresses reported by the list_shards op.
func NewMongos(env sim.Env, conns []driver.Conn, addrs []string, params core.Params, opts RouterOptions) *Mongos {
	m := &Mongos{env: env, router: NewConnRouter(env, conns, params, opts)}
	for i := range conns {
		si := wire.ShardInfo{ID: i}
		if i < len(addrs) {
			si.Addr = addrs[i]
		}
		m.shards = append(m.shards, si)
	}
	return m
}

// Router returns the underlying shard router.
func (m *Mongos) Router() *Router { return m.router }

// Metrics implements wire.Backend: the router's registry (scatter,
// stale-retry, and migration counters), which the wire server also
// fills with transport metrics.
func (m *Mongos) Metrics() *obs.Registry { return m.router.Registry() }

// Tracer implements wire.Backend: the recorder holding mongos.scatter
// spans and the server's transport spans.
func (m *Mongos) Tracer() *trace.Recorder { return m.router.Tracer() }

// Inline implements wire.Backend: every routed op may wait on a shard
// round trip, so none runs on the connection's reader.
func (m *Mongos) Inline(*wire.Request) bool { return false }

// Dispatch implements wire.Backend: the routed op set.
func (m *Mongos) Dispatch(p sim.Proc, req *wire.Request, tctx trace.Context, resp *wire.Response) error {
	switch req.Op {
	case wire.OpTopology:
		// One logical node: clients address the router itself; the
		// real topology hides behind it (inspect it via list_shards).
		resp.Topo = &wire.Topology{Primary: 0, Zones: []string{"mongos"}}
	case wire.OpPing:
		// Alive by definition of having answered.
	case wire.OpStatus:
		resp.Status = &wire.StatusBody{
			From: 0, Primary: 0,
			Members: []wire.Member{{ID: 0, Primary: true}},
		}
	case wire.OpFindByID:
		doc, err := m.findByID(p, req.Collection, req.DocID, req.BoundSecs)
		if err != nil {
			return err
		}
		resp.SetDoc(doc)
	case wire.OpFindMany:
		docs, err := m.findMany(p, req.Collection, req.IDs, req.BoundSecs)
		if err != nil {
			return err
		}
		resp.SetDocs(docs)
	case wire.OpFind:
		docs, err := m.router.scatterFind(p, tctx, req.Collection, req.Filter, req.Limit, ScatterOptions{})
		if err != nil {
			return err
		}
		resp.SetDocs(docs)
	case wire.OpCount:
		n, err := m.router.scatterCount(p, tctx, req.Collection, req.Filter, ScatterOptions{})
		if err != nil {
			return err
		}
		resp.Count = n
	case wire.OpWriteBatch:
		if err := m.writeBatch(p, req.Muts); err != nil {
			return err
		}
	case wire.OpListShards:
		resp.Shards = append([]wire.ShardInfo(nil), m.shards...)
	case wire.OpChunkMap:
		if auth := m.router.Authority(); auth != nil {
			cm := auth.Map()
			body := &wire.ChunkMapBody{Version: cm.Version}
			for _, ck := range cm.Chunks {
				body.Chunks = append(body.Chunks, wire.ChunkInfo{Min: ck.Min, Max: ck.Max, Shard: ck.Shard})
			}
			resp.Chunks = body
		}
	case wire.OpMoveChunk:
		if err := m.router.MigrateChunk(p, req.DocID, req.Node, MigrateOptions{}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("wire: op %q not supported by mongos", req.Op)
	}
	return nil
}

// findByID routes a point read, spending the request's declared
// freshness bound against the router cache first when one is enabled.
func (m *Mongos) findByID(p sim.Proc, collection, id string, boundSecs int64) (storage.Document, error) {
	doc, _, _, err := m.router.ReadByIDBounded(p, collection, id, boundSecs)
	return doc, err
}

func (m *Mongos) findMany(p sim.Proc, collection string, ids []string, boundSecs int64) ([]storage.Document, error) {
	var docs []storage.Document
	for _, id := range ids {
		d, _, _, err := m.router.ReadByIDBounded(p, collection, id, boundSecs)
		if err != nil {
			return nil, err
		}
		if d != nil {
			docs = append(docs, d)
		}
	}
	return docs, nil
}

// writeBatch splits a batch by owning shard, routing every mutation
// through the chunk authority so writes respect migration freezes.
// The split is not atomic across shards (each shard's sub-batch is).
func (m *Mongos) writeBatch(p sim.Proc, muts []wire.Mutation) error {
	for i := range muts {
		mut := &muts[i]
		key := mut.DocID
		doc := mut.Doc
		if key == "" && doc != nil {
			key = doc.ID()
		}
		if key == "" {
			return fmt.Errorf("sharding: mutation without a document id")
		}
		m.router.noteCollection(mut.Collection)
		kind := mut.Kind
		coll := mut.Collection
		err := m.router.route(p, key, true, func(shard int) error {
			_, _, err := m.router.systems[shard].Router.Write(p, func(tx cluster.WriteTxn) (any, error) {
				switch kind {
				case "insert":
					return nil, tx.Insert(coll, doc)
				case "set":
					return nil, tx.Set(coll, key, doc)
				case "delete":
					return nil, tx.Delete(coll, key)
				default:
					return nil, fmt.Errorf("wire: unknown mutation kind %q", kind)
				}
			})
			return err
		})
		if err != nil {
			return err
		}
		m.router.invalidateKey(coll, key)
	}
	return nil
}
