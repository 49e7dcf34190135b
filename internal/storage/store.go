package storage

import (
	"sort"
	"sync"
)

// Store is a named set of collections: one node's local database. It
// is safe for concurrent use: the collection map is guarded by an
// RWMutex (C's fast path is a read lock), and each Collection carries
// its own reader-writer synchronization.
type Store struct {
	mu          sync.RWMutex
	collections map[string]*Collection
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{collections: make(map[string]*Collection)}
}

// C returns the collection with the given name, creating it if needed.
func (s *Store) C(name string) *Collection {
	s.mu.RLock()
	c, ok := s.collections[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.collections[name]; ok {
		return c
	}
	c = newCollection(name)
	s.collections[name] = c
	return c
}

// Lookup returns the named collection without creating it.
func (s *Store) Lookup(name string) (*Collection, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.collections[name]
	return c, ok
}

// CloneShallow returns a new store whose collections share this
// store's committed documents (see Collection.CloneShallow) — the
// initial-sync snapshot a node that fell off the oplog restarts from.
func (s *Store) CloneShallow() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := NewStore()
	for name, c := range s.collections {
		out.collections[name] = c.CloneShallow()
	}
	return out
}

// TotalDocs returns the number of documents across all collections.
func (s *Store) TotalDocs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, c := range s.collections {
		n += c.Len()
	}
	return n
}

// DBStats aggregates CollStats over a whole store — the dbstats
// command's source.
type DBStats struct {
	Collections int
	Docs        int
	Indexes     int
	// EncodedBytes is the store's data size: the sum of every stored
	// encoding (see CollStats.EncodedBytes).
	EncodedBytes int64
	// PerCollection carries the individual rows, sorted by name.
	PerCollection []CollStats
}

// Stats walks every collection and returns the store's dbstats view.
// Cost is one read-locked tree walk per collection; intended for
// scrape-interval telemetry, not hot paths.
func (s *Store) Stats() DBStats {
	s.mu.RLock()
	colls := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		colls = append(colls, c)
	}
	s.mu.RUnlock()
	out := DBStats{Collections: len(colls)}
	for _, c := range colls {
		cs := c.Stats()
		out.Docs += cs.Docs
		out.Indexes += cs.Indexes
		out.EncodedBytes += cs.EncodedBytes
		out.PerCollection = append(out.PerCollection, cs)
	}
	sort.Slice(out.PerCollection, func(i, j int) bool {
		return out.PerCollection[i].Name < out.PerCollection[j].Name
	})
	return out
}
