// Sharded cluster: §2.2 of the paper notes that Decongestant's
// techniques apply to sharded clusters, which expose the same Read
// Preference API per shard. This example runs a 2-shard deployment
// with an independent Read Balancer per shard, hammers keys on one
// shard only, and shows that only the hot shard's Balance Fraction
// climbs.
//
//	go run ./examples/shardedcluster
package main

import (
	"fmt"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/sharding"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

func main() {
	env := sim.NewEnv(99)
	defer env.Shutdown()

	cfg := cluster.DefaultConfig()
	cfg.CPUSlots = 8
	cfg.ReadCost = 3 * time.Millisecond
	// Two chunks of the doc0000..doc9999 key space, one per shard.
	shards := sharding.New(env, 2, []string{"doc5000"}, cfg)
	params := core.DefaultParams()
	params.Period = 5 * time.Second
	router := sharding.NewRouter(env, shards, params)

	// One hot key on shard 0, one cold key on shard 1.
	hot, cold := "doc0042", "doc7042"
	if err := shards.Bootstrap(func(shard int, s *storage.Store) error {
		for _, k := range []string{hot, cold} {
			if shards.Owner(k) == shard {
				if err := s.C("kv").Insert(storage.D{"_id": k, "v": 0}); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		panic(err)
	}

	// 100 clients on the hot key, 2 on the cold one.
	for i := 0; i < 100; i++ {
		env.Spawn("hot", func(p sim.Proc) {
			for {
				router.ReadByID(p, "kv", hot)
			}
		})
	}
	for i := 0; i < 2; i++ {
		env.Spawn("cold", func(p sim.Proc) {
			for {
				router.ReadByID(p, "kv", cold)
				p.Sleep(20 * time.Millisecond)
			}
		})
	}

	fmt.Printf("hot key %q -> shard %d, cold key %q -> shard %d\n\n",
		hot, shards.Owner(hot), cold, shards.Owner(cold))
	fmt.Println("t(s)   shard0-balance%   shard1-balance%")
	for t := 10 * time.Second; t <= 90*time.Second; t += 10 * time.Second {
		env.Run(t)
		fr := router.Fractions()
		fmt.Printf("%4.0f   %15d   %15d\n", t.Seconds(), fr[0], fr[1])
	}
	fmt.Println("\nOnly the congested shard shifted its reads to secondaries.")
}
