package sharding

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"decongestant/internal/cache"
	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/obs/trace"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// maxStaleRetries bounds how many times a routed op chases a moving
// chunk before giving up. One refresh normally suffices; the bound
// exists so a wedged authority cannot spin a client forever.
const maxStaleRetries = 4

// Router is the mongos: it owns one complete Decongestant system per
// shard and routes document operations by shard key. Each shard's
// Read Balancer adapts to that shard's congestion independently.
//
// In hash mode the shard is a pure function of the key. In chunk mode
// the router caches a version of the authority's ChunkMap; when a
// migration moves a chunk, the next op planned against the stale
// cache is rejected with a StaleChunkError, the cache refreshes, and
// the op retries against the new owner (counted by
// sharding.stale_chunk_retries).
type Router struct {
	env     sim.Env
	cluster *Cluster // nil for conn-backed routers
	systems []*core.System
	conns   []driver.Conn
	params  core.Params
	auth    *ChunkAuthority // nil in hash mode
	cached  atomic.Pointer[ChunkMap]

	reg        *obs.Registry
	tracer     *trace.Recorder
	seqScatter bool

	// Router-side freshness-priced cache (nil when disabled; see
	// cache.go). auditors holds each shard conn's CacheAuditor
	// capability (nil entries for conns that lack it), resolved once at
	// EnableCache so hits never type-assert.
	rcache   *cache.Cache
	auditors []driver.CacheAuditor

	staleRetries     *obs.Counter
	scatterPartial   *obs.Counter
	scatterTotal     *obs.Counter
	migrationsDone   *obs.Counter
	migrationResyncs *obs.Counter
	chunksGauge      *obs.Gauge
	versionGauge     *obs.Gauge

	migMu sync.Mutex // serializes MigrateChunk calls through this router

	collMu sync.Mutex
	colls  map[string]struct{}
}

// RouterOptions tunes a conn-backed router (NewConnRouter).
type RouterOptions struct {
	// Authority enables chunk routing; nil means hash mode.
	Authority *ChunkAuthority
	// Registry receives the router's counters; nil allocates a fresh
	// one (readable via Router.Registry).
	Registry *obs.Registry
	// Tracer records mongos.scatter spans; nil allocates an unsampled
	// recorder.
	Tracer *trace.Recorder
	// SequentialScatter forces the one-shard-at-a-time scatter path,
	// the reference the parallel path is tested and benchmarked against.
	SequentialScatter bool
}

// NewRouter builds a router with an independent Decongestant per
// shard (the Balancers' background processes start immediately). If
// the cluster has chunks enabled (EnableChunks must run first), the
// router routes by chunk.
func NewRouter(env sim.Env, c *Cluster, params core.Params) *Router {
	conns := make([]driver.Conn, len(c.shards))
	for i, rs := range c.shards {
		conns[i] = driver.WrapCluster(rs)
	}
	r := newRouter(env, conns, params, RouterOptions{Authority: c.auth})
	r.cluster = c
	return r
}

// NewConnRouter builds a router over pre-dialed shard connections —
// the form mongosd uses, where each conn is a wire client to a
// remote shard server.
func NewConnRouter(env sim.Env, conns []driver.Conn, params core.Params, opts RouterOptions) *Router {
	return newRouter(env, conns, params, opts)
}

func newRouter(env sim.Env, conns []driver.Conn, params core.Params, opts RouterOptions) *Router {
	if len(conns) == 0 {
		panic("sharding: router needs at least one shard connection")
	}
	r := &Router{
		env:        env,
		conns:      conns,
		params:     params,
		auth:       opts.Authority,
		reg:        opts.Registry,
		tracer:     opts.Tracer,
		seqScatter: opts.SequentialScatter,
		colls:      make(map[string]struct{}),
	}
	if r.reg == nil {
		r.reg = obs.NewRegistry()
	}
	if r.tracer == nil {
		r.tracer = trace.NewRecorder(env.NewRand("sharding.router.trace"), trace.Config{})
	}
	r.staleRetries = r.reg.Counter("sharding.stale_chunk_retries")
	r.scatterPartial = r.reg.Counter("sharding.scatter_partial")
	r.scatterTotal = r.reg.Counter("sharding.scatter_total")
	r.migrationsDone = r.reg.Counter("sharding.migrations")
	r.migrationResyncs = r.reg.Counter("sharding.migration_resyncs")
	r.chunksGauge = r.reg.Gauge("sharding.chunks")
	r.versionGauge = r.reg.Gauge("sharding.chunk_version")
	if r.auth != nil {
		m := r.auth.Map()
		r.cached.Store(m)
		r.chunksGauge.Set(int64(m.NumChunks()))
		r.versionGauge.Set(int64(m.Version))
	}
	for _, conn := range conns {
		r.systems = append(r.systems, core.NewSystem(env, conn, params))
	}
	return r
}

// System returns shard i's Decongestant system (for inspection).
func (r *Router) System(i int) *core.System { return r.systems[i] }

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.systems) }

// Registry returns the router's metrics (stale retries, scatter
// partials, migration counters).
func (r *Router) Registry() *obs.Registry { return r.reg }

// Tracer returns the recorder carrying mongos.scatter spans.
func (r *Router) Tracer() *trace.Recorder { return r.tracer }

// Authority returns the chunk authority, or nil in hash mode.
func (r *Router) Authority() *ChunkAuthority { return r.auth }

// ChunkVersion returns the version of the router's cached table (0 in
// hash mode).
func (r *Router) ChunkVersion() uint64 {
	if m := r.cached.Load(); m != nil {
		return m.Version
	}
	return 0
}

// Owner returns the shard the router would route key to right now.
func (r *Router) Owner(key string) int {
	if m := r.cached.Load(); m != nil {
		return m.Owner(key)
	}
	return hashShard(key, uint32(len(r.systems)))
}

// refreshMap re-reads the authoritative table into the router's
// cache, mirroring what a real mongos does on a stale-config error.
func (r *Router) refreshMap() {
	if r.auth == nil {
		return
	}
	m := r.auth.Map()
	r.cached.Store(m)
	r.chunksGauge.Set(int64(m.NumChunks()))
	r.versionGauge.Set(int64(m.Version))
}

// noteCollection remembers a collection name seen in traffic so chunk
// migration knows which collections to clone by default.
func (r *Router) noteCollection(coll string) {
	r.collMu.Lock()
	if _, ok := r.colls[coll]; !ok {
		r.colls[coll] = struct{}{}
	}
	r.collMu.Unlock()
}

func (r *Router) seenCollections() []string {
	r.collMu.Lock()
	defer r.collMu.Unlock()
	out := make([]string, 0, len(r.colls))
	for c := range r.colls {
		out = append(out, c)
	}
	return out
}

// route plans key onto a shard under the cached table, validates the
// plan with the authority, runs fn, and retries on stale-chunk
// rejections after refreshing the cache. In hash mode it is a direct
// call with no authority round trip.
func (r *Router) route(p sim.Proc, key string, write bool, fn func(shard int) error) error {
	if r.auth == nil {
		return fn(hashShard(key, uint32(len(r.systems))))
	}
	for attempt := 0; ; attempt++ {
		shard := r.cached.Load().Owner(key)
		l, err := r.auth.Enter(p, key, shard, write)
		if err != nil {
			if IsStaleChunk(err) && attempt < maxStaleRetries {
				r.staleRetries.Inc(1)
				r.refreshMap()
				continue
			}
			return err
		}
		err = fn(shard)
		l.release()
		return err
	}
}

// ReadByID routes a single-document read to the owning shard through
// that shard's Decongestant Router.
func (r *Router) ReadByID(p sim.Proc, collection, id string) (storage.Document, driver.ReadPref, time.Duration, error) {
	r.noteCollection(collection)
	var (
		doc  storage.Document
		pref driver.ReadPref
		lat  time.Duration
	)
	err := r.route(p, id, false, func(shard int) error {
		res, pf, lt, err := r.systems[shard].Router.Read(p, func(v cluster.ReadView) (any, error) {
			d, ok := v.FindByID(collection, id)
			if !ok {
				return nil, nil
			}
			return d, nil
		})
		pref, lat = pf, lt
		if err != nil {
			return err
		}
		if res != nil {
			doc = res.(storage.Document)
		}
		return nil
	})
	if err != nil {
		return nil, pref, lat, err
	}
	return doc, pref, lat, nil
}

// Upsert routes a single-document set to the owning shard's primary.
func (r *Router) Upsert(p sim.Proc, collection, id string, fields storage.Document) (time.Duration, error) {
	r.noteCollection(collection)
	var lat time.Duration
	err := r.route(p, id, true, func(shard int) error {
		_, lt, err := r.systems[shard].Router.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Set(collection, id, fields)
		})
		lat = lt
		return err
	})
	if err == nil {
		r.invalidateKey(collection, id)
	}
	return lat, err
}

// Insert routes a single-document insert to the owning shard.
func (r *Router) Insert(p sim.Proc, collection string, doc storage.Document) (time.Duration, error) {
	id := doc.ID()
	if id == "" {
		return 0, fmt.Errorf("sharding: insert requires a string _id")
	}
	r.noteCollection(collection)
	var lat time.Duration
	err := r.route(p, id, true, func(shard int) error {
		_, lt, err := r.systems[shard].Router.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Insert(collection, doc)
		})
		lat = lt
		return err
	})
	if err == nil {
		r.invalidateKey(collection, id)
	}
	return lat, err
}

// Delete routes a single-document delete to the owning shard.
func (r *Router) Delete(p sim.Proc, collection, id string) (time.Duration, error) {
	r.noteCollection(collection)
	var lat time.Duration
	err := r.route(p, id, true, func(shard int) error {
		_, lt, err := r.systems[shard].Router.Write(p, func(tx cluster.WriteTxn) (any, error) {
			return nil, tx.Delete(collection, id)
		})
		lat = lt
		return err
	})
	if err == nil {
		r.invalidateKey(collection, id)
	}
	return lat, err
}

// Fractions returns each shard's current Balance Fraction in percent —
// the per-shard adaptation the paper's §2.2 remark predicts.
func (r *Router) Fractions() []int {
	out := make([]int, len(r.systems))
	for i, sys := range r.systems {
		out[i] = sys.Balancer.FractionPct()
	}
	return out
}
