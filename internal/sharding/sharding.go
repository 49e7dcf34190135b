// Package sharding implements MongoDB-style horizontal partitioning
// over replica sets (§2.2): documents are partitioned by _id across
// shards, each shard is a full replica set, and a mongos-like router
// fans operations out. The paper notes its techniques "can be applied
// to sharded clusters, which support the same Read Preference API" —
// Router demonstrates exactly that by running one independent
// Decongestant (Read Balancer + Router) per shard.
//
// Two placement modes exist. The default hash mode assigns each _id
// by FNV-1a hash — uniform, but immovable. Chunk mode (EnableChunks)
// partitions the key space into contiguous ranges tracked by a
// versioned ChunkMap; chunks can be split and live-migrated between
// shards while traffic continues (see migrate.go).
package sharding

import (
	"fmt"

	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// Cluster is a sharded deployment: N shards, each a replica set.
type Cluster struct {
	env     sim.Env
	shards  []*cluster.ReplicaSet
	nShards uint32
	auth    *ChunkAuthority
}

// New builds a sharded cluster of numShards replica sets, each with
// the given per-shard configuration.
func New(env sim.Env, numShards int, cfg cluster.Config) *Cluster {
	if numShards < 1 {
		panic("sharding: need at least one shard")
	}
	c := &Cluster{env: env, nShards: uint32(numShards)}
	for i := 0; i < numShards; i++ {
		c.shards = append(c.shards, cluster.New(env, cfg))
	}
	return c
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard returns shard i's replica set.
func (c *Cluster) Shard(i int) *cluster.ReplicaSet { return c.shards[i] }

// FNV-1a constants (hash/fnv's 32-bit parameters, inlined so the hot
// routing path allocates nothing).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// hashShard is the allocation-free FNV-1a placement shared by Cluster
// and conn-backed routers. It is bit-identical to hash/fnv.New32a
// followed by Sum32() % n, so documents placed by earlier versions
// stay on the same shard.
func hashShard(id string, n uint32) int {
	h := uint32(fnvOffset32)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * fnvPrime32
	}
	return int(h % n)
}

// ShardFor hash-partitions a document id onto a shard. It is the hash
// mode's placement function and allocates nothing — it sits on the
// routing fast path of every single-document op.
func (c *Cluster) ShardFor(id string) int { return hashShard(id, c.nShards) }

// EnableChunks switches the cluster from hash placement to chunk
// routing: the key space is cut at the given split points and chunks
// are assigned round-robin. Call it before NewRouter and before
// loading data (Owner governs Bootstrap placement). It returns the
// authority so tests and tools can drive splits and migrations.
func (c *Cluster) EnableChunks(splits []string) *ChunkAuthority {
	c.auth = NewChunkAuthority(c.env, NewChunkMap(splits, len(c.shards)))
	return c.auth
}

// Authority returns the chunk authority, or nil in hash mode.
func (c *Cluster) Authority() *ChunkAuthority { return c.auth }

// Owner returns the shard that owns id under the current placement
// mode — the chunk table when chunks are enabled, the hash otherwise.
func (c *Cluster) Owner(id string) int {
	if c.auth != nil {
		return c.auth.Map().Owner(id)
	}
	return c.ShardFor(id)
}

// Bootstrap loads data: fn is invoked once per shard, with that
// shard's store, so loaders can insert only the documents belonging to
// that shard (use Owner). It runs against each shard's primary; the
// shard's other members start from a copy of the result (see
// cluster.ReplicaSet.Bootstrap).
func (c *Cluster) Bootstrap(fn func(shard int, s *storage.Store) error) error {
	for i, rs := range c.shards {
		i := i
		if err := rs.Bootstrap(func(s *storage.Store) error { return fn(i, s) }); err != nil {
			return fmt.Errorf("sharding: shard %d: %w", i, err)
		}
	}
	return nil
}
