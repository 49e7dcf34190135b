package sharding

// The router-side freshness-priced cache: one shared bounded-staleness
// document cache in front of all shards, consulted by bounded
// single-document reads before any shard is touched. It is the mongos
// counterpart of the driver-side cache (internal/driver/cache.go) with
// one extra dimension: every entry is stamped with the chunk-table
// version it was filled under, so a chunk migration invalidates the
// moved range both eagerly (InvalidateRange at commit) and lazily (a
// version-mismatched entry is dropped on its next lookup, which is how
// routers that merely refreshed after a stale-chunk rejection converge).
//
// Causal tokens do not propagate through the mongos (a documented
// router exception), so lookups carry no session prerequisite; the
// validity rule is purely the freshness price: an entry filled with
// observed staleness s at wall time t satisfies bound Δ until
// t + (Δ − s − guardBand).

import (
	"time"

	"decongestant/internal/cache"
	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// EnableCache attaches the shared router-side cache. Hits are audited
// against the owning shard's freshness auditor when that shard's
// connection offers the CacheAuditor capability (the in-process shard
// conns do; wire-backed shards count hits only in the router's own
// cache.* instruments). Call before serving traffic.
func (r *Router) EnableCache(cfg cache.Config) *cache.Cache {
	r.rcache = cache.New(r.env, cfg, r.reg)
	r.auditors = make([]driver.CacheAuditor, len(r.conns))
	for i, conn := range r.conns {
		r.auditors[i], _ = conn.(driver.CacheAuditor)
	}
	return r.rcache
}

// Cache returns the router-side cache (nil when disabled).
func (r *Router) Cache() *cache.Cache { return r.rcache }

// cacheGet answers one lookup from the router cache, auditing a hit
// with its effective staleness against the owning shard's freshness
// auditor.
func (r *Router) cacheGet(p sim.Proc, key cache.Key, boundSecs int64) (storage.Document, bool) {
	doc, hit, ok := r.rcache.Get(p.Now(), key, boundSecs, oplog.Zero, r.ChunkVersion())
	if !ok {
		return nil, false
	}
	if a := r.auditors[r.Owner(key.ID)]; a != nil {
		a.AuditServed(boundSecs, hit.EffSecs, 0)
	}
	return doc, true
}

// invalidateKey drops one document from the router cache after a
// routed write committed (no-op with the cache disabled). Invalidation
// rather than refresh is deliberate: the commit is newer than any
// concurrent fill, so dropping is always safe.
func (r *Router) invalidateKey(collection, id string) {
	if r.rcache != nil {
		r.rcache.InvalidateKey(cache.Key{Collection: collection, ID: id})
	}
}

// invalidateChunk drops every cached document of a migrated chunk's
// range across the migrated collections. Called at migration commit,
// after the authority published the new table.
func (r *Router) invalidateChunk(ck Chunk, collections []string) {
	if r.rcache == nil {
		return
	}
	for _, coll := range collections {
		r.rcache.InvalidateRange(coll, ck.Min, ck.Max)
	}
}

// ReadByIDBounded is ReadByID under a caller-declared freshness bound:
// with the router cache enabled and boundSecs > 0 it first tries to
// spend the staleness budget locally, and only on a miss routes to the
// owning shard — through that shard's Decongestant router, asking the
// serving node for its observed staleness — then fills the cache with
// the result. Concurrent misses of one key collapse into a single
// shard read. A cache hit reports zero shard latency and the zero
// ReadPref (no shard served).
func (r *Router) ReadByIDBounded(p sim.Proc, collection, id string, boundSecs int64) (storage.Document, driver.ReadPref, time.Duration, error) {
	if r.rcache == nil || boundSecs <= 0 {
		return r.ReadByID(p, collection, id)
	}
	start := p.Now()
	key := cache.Key{Collection: collection, ID: id}
	if doc, ok := r.cacheGet(p, key, boundSecs); ok {
		return doc, 0, p.Now() - start, nil
	}
	leader := r.rcache.BeginFill(p, key)
	if !leader {
		// Collapsed follower: the leader's fill may already answer.
		if doc, ok := r.cacheGet(p, key, boundSecs); ok {
			return doc, 0, p.Now() - start, nil
		}
		leader = r.rcache.BeginFill(p, key)
	}
	if leader {
		defer r.rcache.EndFill(key)
	}

	r.noteCollection(collection)
	version := r.ChunkVersion()
	var (
		doc      storage.Document
		pref     driver.ReadPref
		ts       oplog.OpTime
		observed int64
		fresh    bool
	)
	err := r.route(p, id, false, func(shard int) error {
		res, pf, err := r.systems[shard].Router.ReadWith(p, driver.ReadRequest{Fresh: true}, func(v cluster.ReadView) (any, error) {
			d, ok := v.FindByID(collection, id)
			if !ok {
				return nil, nil
			}
			return d, nil
		})
		pref, ts, observed, fresh = pf, res.OpTime, res.StalenessSecs, res.Fresh
		if err != nil {
			return err
		}
		if res.Value != nil {
			doc = res.Value.(storage.Document)
		}
		return nil
	})
	lat := p.Now() - start
	if err != nil {
		return nil, pref, lat, err
	}
	// Stamp the fill with the table version the read routed under; if a
	// migration bumped it mid-read the fill is skipped rather than
	// stamped ambiguously (the next bounded read refills).
	if doc != nil && fresh && r.ChunkVersion() == version {
		r.rcache.Put(p.Now(), key, doc, observed, ts, version)
	}
	return doc, pref, lat, nil
}
