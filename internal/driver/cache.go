package driver

import (
	"sync"
	"time"

	"decongestant/internal/cache"
	"decongestant/internal/cluster"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// FreshConn is the optional connection capability behind the
// freshness-priced cache: a read that also reports the staleness the
// serving node observed at serve time (0 when the primary served).
// The cache stamps fills with that value — an entry filled s seconds
// stale at time t provably satisfies bound Δ until t + (Δ − s).
type FreshConn interface {
	Conn
	ExecReadFreshMeta(p sim.Proc, nodeID int, after oplog.OpTime, meta cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, int64, error)
}

// CacheAuditor is the optional connection capability that files reads
// served without touching any node — cache hits — into the server-side
// freshness auditor, so every hit still lands in the observed-staleness
// histograms and can fire freshness.bound_violations.
type CacheAuditor interface {
	AuditServed(boundSecs, observedSecs int64, traceID uint64) bool
}

// The in-process replica set provides both capabilities.
var (
	_ FreshConn    = (*clusterConn)(nil)
	_ CacheAuditor = (*clusterConn)(nil)
)

// EnableCache attaches a freshness-priced read cache to the client.
// Bounded reads (AuditBoundSecs > 0, any non-linearizable preference)
// consult it before selecting a server; hits are priced against the
// bound and audited, misses fill through the connection's FreshConn
// capability. Returns the cache (nil when the connection cannot report
// observed staleness — then the client reads exactly as before).
func (c *Client) EnableCache(env sim.Env, cfg cache.Config) *cache.Cache {
	if c.fresh == nil {
		return nil
	}
	c.cache = cache.New(env, cfg, c.reg)
	return c.cache
}

// Cache returns the attached cache (nil when disabled).
func (c *Client) Cache() *cache.Cache { return c.cache }

// cacheView is the phase-1 optimistic read view: it answers point
// lookups from the cache alone and flags the first miss. It is pooled
// so the all-hit path allocates nothing.
type cacheView struct {
	cache   *cache.Cache
	now     time.Duration
	bound   int64
	after   oplog.OpTime
	miss    bool
	missKey cache.Key
	worst   int64        // worst effective staleness over the hits
	maxFill oplog.OpTime // newest fill OpTime over the hits
}

var cacheViewPool = sync.Pool{New: func() any { return new(cacheView) }}

func (v *cacheView) FindByID(collection, id string) (storage.Document, bool) {
	if v.miss {
		return nil, false
	}
	doc, hit, ok := v.cache.Get(v.now, cache.Key{Collection: collection, ID: id}, v.bound, v.after, 0)
	if !ok {
		v.miss = true
		v.missKey = cache.Key{Collection: collection, ID: id}
		return nil, false
	}
	if hit.EffSecs > v.worst {
		v.worst = hit.EffSecs
	}
	if v.maxFill.Before(hit.FillOpTime) {
		v.maxFill = hit.FillOpTime
	}
	return doc, true
}

func (v *cacheView) FindManyByID(collection string, ids []string) []storage.Document {
	if v.miss {
		return nil
	}
	out := make([]storage.Document, 0, len(ids))
	for _, id := range ids {
		doc, ok := v.FindByID(collection, id)
		if v.miss {
			return nil
		}
		if ok {
			out = append(out, doc)
		}
	}
	return out
}

// Filtered queries and counts are not cached: they always fall through
// to the network phase.
func (v *cacheView) Find(collection string, f storage.Filter, limit int) []storage.Document {
	v.miss = true
	return nil
}

func (v *cacheView) Count(collection string, f storage.Filter) int {
	v.miss = true
	return 0
}

func (v *cacheView) AddUnits(u int) {}

// fillRecorder is the phase-2 view: it forwards to the real (node or
// remote) view and records every point-read result so the caller can
// fill the cache after the read returns with its observed staleness.
type fillRecorder struct {
	inner cluster.ReadView
	cols  []string
	docs  []storage.Document
}

func (r *fillRecorder) FindByID(collection, id string) (storage.Document, bool) {
	doc, ok := r.inner.FindByID(collection, id)
	if ok {
		r.cols = append(r.cols, collection)
		r.docs = append(r.docs, doc)
	}
	return doc, ok
}

func (r *fillRecorder) FindManyByID(collection string, ids []string) []storage.Document {
	docs := r.inner.FindManyByID(collection, ids)
	for _, d := range docs {
		if d != nil {
			r.cols = append(r.cols, collection)
			r.docs = append(r.docs, d)
		}
	}
	return docs
}

func (r *fillRecorder) Find(collection string, f storage.Filter, limit int) []storage.Document {
	return r.inner.Find(collection, f, limit)
}

func (r *fillRecorder) Count(collection string, f storage.Filter) int {
	return r.inner.Count(collection, f)
}

func (r *fillRecorder) AddUnits(u int) { r.inner.AddUnits(u) }

// wrap runs fn against the recorder over each view the read executes
// on, keeping only the last attempt's results.
func (r *fillRecorder) wrap(fn func(v cluster.ReadView) (any, error)) func(v cluster.ReadView) (any, error) {
	return func(v cluster.ReadView) (any, error) {
		r.inner = v
		r.cols, r.docs = r.cols[:0], r.docs[:0]
		return fn(r)
	}
}

// fill puts every recorded point-read result into the cache, stamped
// with the serving member's observed staleness and applied OpTime.
func (r *fillRecorder) fill(c *cache.Cache, now time.Duration, observed int64, ts oplog.OpTime) {
	for i := range r.docs {
		c.Put(now, cache.Key{Collection: r.cols[i], ID: r.docs[i].ID()}, r.docs[i], observed, ts, 0)
	}
}

// tryCacheHit runs fn against the cache-only view (zero network hops,
// zero allocations). On an all-hit read it audits once with the worst
// effective staleness and returns the result with the newest fill
// OpTime and hit=true; otherwise it returns the first missing key. fn
// must be a pure function of the view: a missing read is re-run
// against the cluster, discarding this attempt's result.
func (c *Client) tryCacheHit(p sim.Proc, req ReadRequest, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, cache.Key, bool, error) {
	v := cacheViewPool.Get().(*cacheView)
	v.cache, v.now, v.bound, v.after = c.cache, p.Now(), req.AuditBoundSecs, req.After
	v.miss, v.worst = false, 0
	v.missKey = cache.Key{}
	v.maxFill = oplog.OpTime{}
	res, err := fn(v)
	if v.miss {
		missKey := v.missKey
		cacheViewPool.Put(v)
		return nil, oplog.Zero, missKey, false, nil
	}
	worst, maxFill := v.worst, v.maxFill
	cacheViewPool.Put(v)
	if c.cacheAudit != nil {
		c.cacheAudit.AuditServed(req.AuditBoundSecs, worst, req.Trace.TraceID)
	}
	return res, maxFill, cache.Key{}, true, err
}

// invalidatingTxn wraps a WriteTxn and records the keys it mutates so
// the client can write-through invalidate its cache after commit.
type invalidatingTxn struct {
	cluster.WriteTxn
	keys []cache.Key
}

func (t *invalidatingTxn) Insert(collection string, doc storage.Document) error {
	t.keys = append(t.keys, cache.Key{Collection: collection, ID: doc.ID()})
	return t.WriteTxn.Insert(collection, doc)
}

func (t *invalidatingTxn) Set(collection, id string, fields storage.Document) error {
	t.keys = append(t.keys, cache.Key{Collection: collection, ID: id})
	return t.WriteTxn.Set(collection, id, fields)
}

func (t *invalidatingTxn) Delete(collection, id string) error {
	t.keys = append(t.keys, cache.Key{Collection: collection, ID: id})
	return t.WriteTxn.Delete(collection, id)
}

// invalidateKeys drops the written keys after a committed transaction.
// Invalidation (not refresh) is deliberate: the commit's OpTime is
// newer than any concurrent fill, so dropping is always safe, and the
// next bounded read refills with a properly stamped entry.
func (c *Client) invalidateKeys(keys []cache.Key) {
	for _, k := range keys {
		c.cache.InvalidateKey(k)
	}
}
