// Package sharding implements MongoDB-style horizontal partitioning
// over replica sets (§2.2): documents are partitioned by _id across
// shards, each shard is a full replica set, and a mongos-like router
// fans operations out. The paper notes its techniques "can be applied
// to sharded clusters, which support the same Read Preference API" —
// Router demonstrates exactly that by running one independent
// Decongestant (Read Balancer + Router) per shard.
//
// Placement is by chunk, as in MongoDB: the key space is cut into
// contiguous ranges tracked by a versioned ChunkMap, which a
// ChunkAuthority owns. Chunks can be split and live-migrated between
// shards while traffic continues (see migrate.go).
package sharding

import (
	"fmt"

	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// Cluster is a sharded deployment: N shards, each a replica set, and
// the chunk authority that places documents on them.
type Cluster struct {
	shards []*cluster.ReplicaSet
	auth   *ChunkAuthority
}

// New builds a sharded cluster of numShards replica sets, each with
// the given per-shard configuration. The key space is cut at the
// split points and the chunks are assigned round-robin (NewChunkMap);
// with no split points every key starts on shard 0.
func New(env sim.Env, numShards int, splits []string, cfg cluster.Config) *Cluster {
	c := &Cluster{auth: NewChunkAuthority(env, NewChunkMap(splits, numShards))}
	for i := 0; i < numShards; i++ {
		c.shards = append(c.shards, cluster.New(env, cfg))
	}
	return c
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard returns shard i's replica set.
func (c *Cluster) Shard(i int) *cluster.ReplicaSet { return c.shards[i] }

// Authority returns the chunk authority, through which tests and
// tools drive splits and migrations.
func (c *Cluster) Authority() *ChunkAuthority { return c.auth }

// Owner returns the shard that owns id under the current chunk table.
// Loaders use it to place documents (see Bootstrap).
func (c *Cluster) Owner(id string) int { return c.auth.Map().Owner(id) }

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
