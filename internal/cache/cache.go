// Package cache implements the freshness-priced read cache: a
// lock-striped, bounded-staleness document cache that spends the
// client's declared staleness budget locally before paying the
// network.
//
// The core idea (Decongestant §4.1.2, applied to caching): an entry
// filled from a node that observed staleness s at wall time t is
// provably within any bound Δ at time t+e as long as
//
//	e + s + guardBand ≤ Δ
//
// because real staleness grows at most at wall-clock rate. The cache
// therefore never needs to revalidate an entry against the cluster —
// it prices each hit by the entry's age plus its fill staleness and
// compares against the read's bound. Entries also carry the fill
// OpTime, so causal sessions can refuse an entry older than their
// token (read-your-writes), and a chunk version, so a router-side
// cache drops entries owned by a migrated chunk.
//
// Read results are read-only by contract, so hits hand back the cached
// storage.Document without cloning: the hit path performs zero
// allocations.
//
// The cache is clocked externally: every operation takes `now`, the
// caller's sim clock reading, so virtual-time runs stay deterministic
// and no cache code ever consults time.Now().
package cache

import (
	"sync"
	"time"

	"decongestant/internal/obs"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// Key identifies one cached point read.
type Key struct {
	Collection string
	ID         string
}

// Config tunes one cache instance. Zero values take defaults.
type Config struct {
	// MaxBytes bounds the cache's approximate payload size; the
	// least-recently-used entries are evicted past it. Default 8 MiB.
	MaxBytes int
	// GuardBandSecs widens the validity test to absorb clock skew
	// between fill and hit (the ε of the lease guard band). Default 1.
	GuardBandSecs int64
	// Stripes is the number of independently locked segments, rounded
	// up to a power of two. Default 16.
	Stripes int
	// NaiveTTLSecs switches the cache to a fixed-TTL validity rule that
	// ignores both the read's bound and the entry's fill staleness —
	// the strawman arm EXPERIMENTS.md uses to show why pricing matters.
	// 0 (default) keeps the freshness-priced rule.
	NaiveTTLSecs int64
	// FlightWait bounds how long a singleflight follower waits for the
	// leader's fill before giving up and fetching itself (covers a
	// leader that errors between registration and broadcast). Default
	// 2ms.
	FlightWait time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = 8 << 20
	}
	if cfg.GuardBandSecs == 0 {
		cfg.GuardBandSecs = 1
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = 16
	}
	n := 1
	for n < cfg.Stripes {
		n <<= 1
	}
	cfg.Stripes = n
	if cfg.FlightWait == 0 {
		cfg.FlightWait = 2 * time.Millisecond
	}
	return cfg
}

type entry struct {
	key  Key
	doc  storage.Document
	wall time.Duration // sim clock at fill
	// fillStalenessSecs is the staleness the serving node observed at
	// fill time; fillOpTime is its lastApplied, the floor for causal
	// token checks.
	fillStalenessSecs int64
	fillOpTime        oplog.OpTime
	chunkVersion      uint64
	bytes             int
	prev, next        *entry // intrusive LRU, head = most recent
}

type flight struct {
	gate sim.Gate
}

type stripe struct {
	mu       sync.Mutex
	entries  map[Key]*entry
	inflight map[Key]*flight
	head     *entry
	tail     *entry
	bytes    int
}

// Cache is one freshness-priced cache instance. Stripe mutexes are
// leaf locks: no cluster, sharding, or storage lock is ever acquired
// while one is held (DESIGN.md §15).
type Cache struct {
	cfg     Config
	env     sim.Env
	stripes []stripe
	mask    uint64
	budget  int // per-stripe byte budget

	hits          *obs.Counter
	misses        *obs.Counter
	expired       *obs.Counter
	evictions     *obs.Counter
	invalidations *obs.Counter
	collapsed     *obs.Counter
}

// New builds a cache. reg may be nil; then the cache registers its
// counters in a private registry (Stats still works).
func New(env sim.Env, cfg Config, reg *obs.Registry) *Cache {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Cache{
		cfg:           cfg,
		env:           env,
		stripes:       make([]stripe, cfg.Stripes),
		mask:          uint64(cfg.Stripes - 1),
		budget:        cfg.MaxBytes / cfg.Stripes,
		hits:          reg.Counter("cache.hits"),
		misses:        reg.Counter("cache.misses"),
		expired:       reg.Counter("cache.expired"),
		evictions:     reg.Counter("cache.evictions"),
		invalidations: reg.Counter("cache.invalidations"),
		collapsed:     reg.Counter("cache.fills_collapsed"),
	}
	for i := range c.stripes {
		c.stripes[i].entries = make(map[Key]*entry)
		c.stripes[i].inflight = make(map[Key]*flight)
	}
	return c
}

// EffectiveConfig reports the configuration after defaults were
// applied — what the cache is actually running with.
func (c *Cache) EffectiveConfig() Config { return c.cfg }

func (c *Cache) stripe(k Key) *stripe {
	// Inline FNV-1a: hash/fnv would allocate on the hit path.
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.Collection); i++ {
		h ^= uint64(k.Collection[i])
		h *= 1099511628211
	}
	h *= 1099511628211 // field separator
	for i := 0; i < len(k.ID); i++ {
		h ^= uint64(k.ID[i])
		h *= 1099511628211
	}
	return &c.stripes[h&c.mask]
}

func ceilSecs(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64((d + time.Second - 1) / time.Second)
}

// Hit describes a served cache entry: the effective staleness priced
// into the hit (fill staleness plus entry age, in whole seconds) —
// which the caller MUST feed through the freshness auditor — and the
// fill OpTime, the floor a causal session advances its token to.
type Hit struct {
	EffSecs    int64
	FillOpTime oplog.OpTime
}

// Get looks up key and prices its validity against the read's bound.
// On a hit it returns the shared immutable document (never mutate it)
// and the hit metadata. version is the caller's chunk-version
// expectation (0 when unsharded); a stale-version entry is dropped
// and misses.
//
// A time-invalid entry is left in place: it may still satisfy a
// looser bound from another session, and LRU pressure reclaims it
// eventually. The hit path allocates nothing.
func (c *Cache) Get(now time.Duration, key Key, boundSecs int64, after oplog.OpTime, version uint64) (storage.Document, Hit, bool) {
	s := c.stripe(key)
	s.mu.Lock()
	e, hit, ok := c.lookupLocked(s, now, key, boundSecs, after, version)
	if !ok {
		return nil, Hit{}, false
	}
	s.moveFrontLocked(e)
	doc := e.doc
	s.mu.Unlock()
	c.hits.Inc(1)
	return doc, hit, true
}

// lookupLocked finds and validates an entry under s.mu. On a miss it
// unlocks s and bumps the relevant counters; on a hit it returns with
// s.mu still held.
func (c *Cache) lookupLocked(s *stripe, now time.Duration, key Key, boundSecs int64, after oplog.OpTime, version uint64) (*entry, Hit, bool) {
	e := s.entries[key]
	if e == nil {
		s.mu.Unlock()
		c.misses.Inc(1)
		return nil, Hit{}, false
	}
	if e.chunkVersion != version {
		s.removeLocked(e)
		s.mu.Unlock()
		c.invalidations.Inc(1)
		c.misses.Inc(1)
		return nil, Hit{}, false
	}
	eff := e.fillStalenessSecs + ceilSecs(now-e.wall)
	var valid bool
	if c.cfg.NaiveTTLSecs > 0 {
		// Strawman: fixed TTL on wall age, blind to fill staleness and
		// to the bound. EXPERIMENTS.md shows this arm violating bounds
		// under lag sawtooth while the priced rule never does.
		valid = now-e.wall <= time.Duration(c.cfg.NaiveTTLSecs)*time.Second
	} else {
		valid = boundSecs > 0 && eff+c.cfg.GuardBandSecs <= boundSecs
	}
	if !valid {
		s.mu.Unlock()
		c.expired.Inc(1)
		c.misses.Inc(1)
		return nil, Hit{}, false
	}
	if e.fillOpTime.Before(after) {
		// The session has seen writes newer than this entry; serving it
		// would break read-your-writes. Keep the entry for sessions
		// with older tokens.
		s.mu.Unlock()
		c.misses.Inc(1)
		return nil, Hit{}, false
	}
	return e, Hit{EffSecs: eff, FillOpTime: e.fillOpTime}, true
}

// Put fills (or refreshes) an entry. doc must be a read result that
// nobody modifies — the cache shares it, never clones it.
// fillStalenessSecs and fillOpTime come from the serving node's
// response; version is the router's chunk version (0 when unsharded).
func (c *Cache) Put(now time.Duration, key Key, doc storage.Document, fillStalenessSecs int64, fillOpTime oplog.OpTime, version uint64) {
	if doc == nil {
		return
	}
	size := len(key.Collection) + len(key.ID) + approxSize(doc)
	s := c.stripe(key)
	s.mu.Lock()
	if e := s.entries[key]; e != nil {
		// Refresh in place, but never regress: a concurrent slower fill
		// carrying an older snapshot must not clobber a newer one.
		if fillOpTime.Before(e.fillOpTime) {
			s.mu.Unlock()
			return
		}
		s.bytes += size - e.bytes
		e.doc, e.wall = doc, now
		e.fillStalenessSecs, e.fillOpTime, e.chunkVersion = fillStalenessSecs, fillOpTime, version
		e.bytes = size
		s.moveFrontLocked(e)
	} else {
		e := &entry{
			key: key, doc: doc, wall: now,
			fillStalenessSecs: fillStalenessSecs,
			fillOpTime:        fillOpTime,
			chunkVersion:      version,
			bytes:             size,
		}
		s.entries[key] = e
		s.pushFrontLocked(e)
		s.bytes += size
	}
	var evicted uint64
	for s.bytes > c.budget && s.tail != nil {
		s.removeLocked(s.tail)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Inc(evicted)
	}
}

// BeginFill elects a singleflight leader for a missing key. It returns
// true when the caller became leader — it must fetch and then call
// EndFill (even on error). It returns false after waiting for the
// current leader, at which point the caller should re-check Get before
// fetching itself.
func (c *Cache) BeginFill(p sim.Proc, key Key) bool {
	s := c.stripe(key)
	s.mu.Lock()
	f := s.inflight[key]
	if f == nil {
		f = &flight{gate: c.env.NewGate()}
		s.inflight[key] = f
		s.mu.Unlock()
		return true
	}
	s.mu.Unlock()
	c.collapsed.Inc(1)
	// The timeout covers a broadcast that fired between unlock and
	// wait, and a leader that died without filling.
	f.gate.WaitTimeout(p, c.cfg.FlightWait)
	return false
}

// EndFill releases the singleflight slot taken by BeginFill and wakes
// all collapsed followers.
func (c *Cache) EndFill(key Key) {
	s := c.stripe(key)
	s.mu.Lock()
	f := s.inflight[key]
	delete(s.inflight, key)
	s.mu.Unlock()
	if f != nil {
		f.gate.Broadcast()
	}
}

// InvalidateKey drops one entry — the write-through hook for local
// writes (insert/update/delete of that id).
func (c *Cache) InvalidateKey(key Key) {
	s := c.stripe(key)
	s.mu.Lock()
	e := s.entries[key]
	if e != nil {
		s.removeLocked(e)
	}
	s.mu.Unlock()
	if e != nil {
		c.invalidations.Inc(1)
	}
}

// InvalidateRange drops every entry of collection whose id lies in
// [min, max) (max == "" means unbounded above) — the move_chunk hook.
// It scans all stripes; migrations are rare enough that O(entries) is
// fine, and each stripe is only locked for its own scan.
func (c *Cache) InvalidateRange(collection, min, max string) {
	var dropped uint64
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if k.Collection != collection {
				continue
			}
			if k.ID < min || (max != "" && k.ID >= max) {
				continue
			}
			s.removeLocked(e)
			dropped++
		}
		s.mu.Unlock()
	}
	if dropped > 0 {
		c.invalidations.Inc(dropped)
	}
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits, Misses, Expired    uint64
	Evictions, Invalidations uint64
	FillsCollapsed           uint64
	Entries                  int
	Bytes                    int
}

// Snapshot returns current counters and occupancy.
func (c *Cache) Snapshot() Stats {
	st := Stats{
		Hits:           c.hits.Value(),
		Misses:         c.misses.Value(),
		Expired:        c.expired.Value(),
		Evictions:      c.evictions.Value(),
		Invalidations:  c.invalidations.Value(),
		FillsCollapsed: c.collapsed.Value(),
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		st.Entries += len(s.entries)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// ---- intrusive LRU (stripe lock held) ----

func (s *stripe) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *stripe) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *stripe) moveFrontLocked(e *entry) {
	if s.head == e {
		return
	}
	s.unlinkLocked(e)
	s.pushFrontLocked(e)
}

func (s *stripe) removeLocked(e *entry) {
	s.unlinkLocked(e)
	delete(s.entries, e.key)
	s.bytes -= e.bytes
}

// approxSize estimates a document's resident footprint without
// encoding it (encoding would defeat the zero-copy fill).
func approxSize(v any) int {
	switch x := v.(type) {
	case storage.Document:
		n := 48
		for k, fv := range x {
			n += len(k) + 16 + approxSize(fv)
		}
		return n
	case map[string]any:
		n := 48
		for k, fv := range x {
			n += len(k) + 16 + approxSize(fv)
		}
		return n
	case []any:
		n := 24
		for _, fv := range x {
			n += approxSize(fv)
		}
		return n
	case string:
		return 16 + len(x)
	case []byte:
		return 24 + len(x)
	default:
		return 16
	}
}
