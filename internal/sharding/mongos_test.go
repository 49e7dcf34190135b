package sharding

import (
	"fmt"
	"net"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/wire"
)

// mongosFixture is a full wire-level deployment: four shard replica
// sets each behind its own wire server, a Mongos routing over dialed
// shard connections, itself served over the wire, plus a single
// replica set holding the identical dataset as the equivalence
// reference.
type mongosFixture struct {
	env    *sim.RealtimeEnv
	mongos *Mongos
	mcl    *wire.Client // client conn to the mongos server
	ref    driver.Conn  // in-process conn to the reference replica set
	stops  []func()
}

func (f *mongosFixture) Close() {
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
	f.env.Shutdown()
}

func startMongosFixture(t *testing.T, splits []string) *mongosFixture {
	t.Helper()
	env := sim.NewRealtimeEnv(21)
	f := &mongosFixture{env: env}
	cfg := shardConfig()
	cfg.ReplIdlePoll = 2 * time.Millisecond

	serve := func(rs *cluster.ReplicaSet) string {
		srv := wire.NewServerWith(env, rs, nil, wire.ServerConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		f.stops = append(f.stops, srv.Close)
		return ln.Addr().String()
	}

	const numShards = 4
	conns := make([]driver.Conn, numShards)
	addrs := make([]string, numShards)
	for i := 0; i < numShards; i++ {
		addrs[i] = serve(cluster.New(env, cfg))
		cl, err := wire.Dial(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		f.stops = append(f.stops, func() { cl.Close() })
		conns[i] = cl
	}

	f.mongos = NewMongos(env, conns, addrs, NewChunkAuthority(env, NewChunkMap(splits, numShards)), core.DefaultParams(), RouterOptions{})
	maddr := func() string {
		srv := wire.NewBackendServer(env, f.mongos, nil, wire.ServerConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		f.stops = append(f.stops, srv.Close)
		return ln.Addr().String()
	}()
	mcl, err := wire.Dial(maddr)
	if err != nil {
		t.Fatal(err)
	}
	f.stops = append(f.stops, func() { mcl.Close() })
	f.mcl = mcl

	f.ref = driver.WrapCluster(cluster.New(env, cfg))
	return f
}

// settle waits until every shard's secondaries (and the reference
// set's) have applied everything, so read placement cannot skew the
// comparison.
func (f *mongosFixture) settle(p sim.Proc) {
	r := f.mongos.Router()
	for i := range r.conns {
		r.waitSecondaries(p, r.conns[i], 5*time.Second)
	}
	r.waitSecondaries(p, f.ref, 5*time.Second)
}

// compare runs the same read against the mongos conn and the
// reference conn and requires identical results.
func (f *mongosFixture) compare(t *testing.T, p sim.Proc, tag string, filter storage.Filter, limit int) {
	t.Helper()
	read := func(conn driver.Conn) ([]storage.Document, int) {
		res, err := conn.ExecRead(p, conn.PrimaryID(), func(v cluster.ReadView) (any, error) {
			return v.Find("kv", filter, limit), nil
		})
		if err != nil {
			t.Fatalf("%s: find: %v", tag, err)
		}
		cnt, err := conn.ExecRead(p, conn.PrimaryID(), func(v cluster.ReadView) (any, error) {
			return v.Count("kv", filter), nil
		})
		if err != nil {
			t.Fatalf("%s: count: %v", tag, err)
		}
		return res.([]storage.Document), cnt.(int)
	}
	gotDocs, gotCount := read(f.mcl)
	wantDocs, wantCount := read(f.ref)
	if gotCount != wantCount {
		t.Fatalf("%s: mongos count %d, reference %d", tag, gotCount, wantCount)
	}
	if len(gotDocs) != len(wantDocs) {
		t.Fatalf("%s: mongos found %d docs, reference %d", tag, len(gotDocs), len(wantDocs))
	}
	for i := range gotDocs {
		g, w := gotDocs[i], wantDocs[i]
		if g.ID() != w.ID() || g.Int("val") != w.Int("val") || g.Str("grp") != w.Str("grp") {
			t.Fatalf("%s: doc %d differs: %v vs %v", tag, i, g, w)
		}
	}
}

// TestMongosEquivalence loads the same dataset through mongosd (4
// shards, chunk-routed) and into a single replica set, then requires
// Find and Count to agree on randomized filters — before and after a
// live chunk migration driven over the wire with move_chunk.
func TestMongosEquivalence(t *testing.T) {
	const numDocs = 160
	f := startMongosFixture(t, []string{"doc040", "doc080", "doc120"})
	defer f.Close()
	p := f.env.Adhoc("test")

	// Load both deployments through their write paths, in batches.
	id := func(i int) string { return fmt.Sprintf("doc%03d", i) }
	grps := []string{"red", "green", "blue"}
	for lo := 0; lo < numDocs; lo += 20 {
		lo := lo
		write := func(conn driver.Conn) {
			_, err := conn.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
				for i := lo; i < lo+20 && i < numDocs; i++ {
					err := tx.Insert("kv", storage.D{
						"_id": id(i), "val": int64(i), "grp": grps[i%len(grps)],
					})
					if err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if err != nil {
				t.Fatalf("load batch at %d: %v", lo, err)
			}
		}
		write(f.mcl)
		write(f.ref)
	}
	// A few updates and deletes through both write paths.
	mutate := func(conn driver.Conn) {
		_, err := conn.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
			for i := 0; i < numDocs; i += 17 {
				if err := tx.Set("kv", id(i), storage.D{"val": int64(1000 + i)}); err != nil {
					return nil, err
				}
			}
			return nil, tx.Delete("kv", id(13))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mutate(f.mcl)
	mutate(f.ref)
	f.settle(p)

	// The chunk table must have placed documents across shards.
	shards, err := f.mcl.ListShards()
	if err != nil || len(shards) != 4 {
		t.Fatalf("ListShards = %v, %v", shards, err)
	}
	cm, err := f.mcl.ChunkMap()
	if err != nil || cm == nil || len(cm.Chunks) != 4 {
		t.Fatalf("ChunkMap = %+v, %v", cm, err)
	}

	randomized := func(stage string) {
		rng := f.env.NewRand("filters-" + stage)
		for trial := 0; trial < 25; trial++ {
			var filter storage.Filter
			switch rng.Intn(5) {
			case 0:
				filter = nil
			case 1:
				filter = storage.Filter{"grp": storage.Eq(grps[rng.Intn(len(grps))])}
			case 2:
				filter = storage.Filter{"val": storage.Gte(int64(rng.Intn(numDocs)))}
			case 3:
				filter = storage.Filter{"val": storage.Lt(int64(rng.Intn(numDocs)))}
			case 4:
				filter = storage.Filter{
					"grp": storage.Eq(grps[rng.Intn(len(grps))]),
					"val": storage.Gte(int64(rng.Intn(numDocs))),
				}
			}
			limit := 0
			if rng.Intn(2) == 1 {
				limit = 1 + rng.Intn(50)
			}
			f.compare(t, p, fmt.Sprintf("%s trial %d (%v limit %d)", stage, trial, filter, limit), filter, limit)
		}
	}
	randomized("pre-migration")

	// Point reads and multi-gets agree too.
	for _, docID := range []string{id(0), id(13), id(42), id(119), "missing"} {
		got, gerr := readByID(p, f.mcl, docID)
		want, werr := readByID(p, f.ref, docID)
		if (gerr != nil) != (werr != nil) || (got == nil) != (want == nil) {
			t.Fatalf("FindByID(%s): mongos (%v,%v) vs reference (%v,%v)", docID, got, gerr, want, werr)
		}
		if got != nil && got.Int("val") != want.Int("val") {
			t.Fatalf("FindByID(%s): val %d vs %d", docID, got.Int("val"), want.Int("val"))
		}
	}

	// Live-migrate a chunk over the wire and re-verify equivalence.
	fromShard := cm.Chunks[1].Shard
	var toShard int
	for s := 0; s < len(shards); s++ {
		if s != fromShard {
			toShard = s
			break
		}
	}
	if err := f.mcl.MoveChunk("doc050", toShard); err != nil {
		t.Fatalf("MoveChunk: %v", err)
	}
	cm2, err := f.mcl.ChunkMap()
	if err != nil || cm2.Version != cm.Version+1 {
		t.Fatalf("post-move chunk map version %d (want %d): %v", cm2.Version, cm.Version+1, err)
	}
	f.settle(p)
	randomized("post-migration")

	snap := f.mongos.Metrics().Snapshot()
	if got := snap.CounterValue("sharding.migrations"); got != 1 {
		t.Errorf("sharding.migrations = %d, want 1", got)
	}
}

func readByID(p sim.Proc, conn driver.Conn, id string) (storage.Document, error) {
	res, err := conn.ExecRead(p, conn.PrimaryID(), func(v cluster.ReadView) (any, error) {
		d, ok := v.FindByID("kv", id)
		if !ok {
			return nil, nil
		}
		return d, nil
	})
	if err != nil || res == nil {
		return nil, err
	}
	return res.(storage.Document), nil
}

// TestMongosNeverInline: every routed op may wait on a shard round
// trip, so even over shards whose reads never sleep the router runs
// nothing on a connection's reader.
func TestMongosNeverInline(t *testing.T) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	cfg := shardConfig()
	cfg.ReadCost, cfg.CostJitter = -1, -1
	cfg.RTTSameZone, cfg.RTTCrossZoneBase, cfg.RTTCrossZoneSpread = -1, -1, -1
	m := NewMongos(env, []driver.Conn{driver.WrapCluster(cluster.New(env, cfg))}, nil,
		NewChunkAuthority(env, NewChunkMap(nil, 1)), core.DefaultParams(), RouterOptions{})
	for _, op := range []string{wire.OpFindByID, wire.OpFindMany, wire.OpFind, wire.OpCount, wire.OpPing, wire.OpWriteBatch} {
		if m.Inline(&wire.Request{Op: op}) {
			t.Errorf("Mongos.Inline(%s) = true, want false", op)
		}
	}
}
