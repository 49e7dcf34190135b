package wire

// Tests for the reader-inline executor: which requests the replica-set
// backend lets a connection's reader run itself, and what a serial
// point read costs in allocations once it does.

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"decongestant/internal/cluster"
	"decongestant/internal/obs"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// sleeplessConfig is a replica set whose reads never sleep: every
// modeled service time and network delay is off, as in the wire
// benchmarks. Replication stays quick and nothing advances the optime
// on its own.
func sleeplessConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.ReadCost, cfg.WriteCost, cfg.ApplyCost = -1, -1, -1
	cfg.StatusCost, cfg.GetMoreCost = -1, -1
	cfg.CostJitter = -1
	cfg.RTTSameZone, cfg.RTTCrossZoneBase, cfg.RTTCrossZoneSpread = -1, -1, -1
	cfg.RTTJitter = -1
	cfg.ReplIdlePoll = 2 * time.Millisecond
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	return cfg
}

// startSleeplessServer serves a sleepless replica set, so plain reads
// and w:1 writes run on the connection's reader.
func startSleeplessServer(t *testing.T, scfg ServerConfig) (*cluster.ReplicaSet, string, func()) {
	t.Helper()
	return startConfiguredServer(t, sleeplessConfig(), scfg)
}

func startConfiguredServer(t *testing.T, cfg cluster.Config, scfg ServerConfig) (*cluster.ReplicaSet, string, func()) {
	t.Helper()
	env := sim.NewRealtimeEnv(1)
	rs := cluster.New(env, cfg)
	srv := NewServerWith(env, rs, nil, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return rs, ln.Addr().String(), func() {
		srv.Close()
		env.Shutdown()
	}
}

// throttlingConfig is a sleepless replica set whose flow control stalls
// writes for delay once a secondary lags a second behind.
func throttlingConfig(delay time.Duration) cluster.Config {
	cfg := sleeplessConfig()
	cfg.FlowControlLagSecs = 1
	cfg.FlowControlDelay = delay
	return cfg
}

// makeThrottling takes a secondary down and, once the environment's
// clock has passed one second, commits a write the downed member can
// never apply — from then on the primary's flow control throttles.
func makeThrottling(t *testing.T, rs *cluster.ReplicaSet) {
	t.Helper()
	rs.SetDown(2, true)
	env := rs.Env()
	if wait := 1100*time.Millisecond - env.Now(); wait > 0 {
		time.Sleep(wait)
	}
	if _, err := rs.ExecWrite(env.(*sim.RealtimeEnv).Adhoc("lag"), func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("c", storage.D{"_id": "k", "v": int64(1)})
	}); err != nil {
		t.Fatal(err)
	}
	if !rs.WriteThrottled() {
		t.Fatal("primary does not throttle writes with a secondary down past the lag limit")
	}
}

func TestBackendInlineClassification(t *testing.T) {
	// Batch, filter and count reads are bounded only by the request, so
	// they stay off the reader even on a sleepless deployment.
	others := []string{OpFindMany, OpFind, OpCount, OpTopology, OpPing, OpStatus,
		OpOplogTail, OpMetrics, OpMetricsPush, OpTrace, OpTracePush, OpCurrentOp}
	modeled := map[string]func(*cluster.Config){
		"sleepless":          func(*cluster.Config) {},
		"ReadCost":           func(c *cluster.Config) { c.ReadCost = 300 * time.Millisecond },
		"WriteCost":          func(c *cluster.Config) { c.WriteCost = 5 * time.Millisecond },
		"ApplyCost":          func(c *cluster.Config) { c.ApplyCost = time.Millisecond },
		"StatusCost":         func(c *cluster.Config) { c.StatusCost = time.Millisecond },
		"GetMoreCost":        func(c *cluster.Config) { c.GetMoreCost = time.Millisecond },
		"RTTSameZone":        func(c *cluster.Config) { c.RTTSameZone = 100 * time.Microsecond },
		"RTTCrossZoneBase":   func(c *cluster.Config) { c.RTTCrossZoneBase = 200 * time.Microsecond },
		"RTTCrossZoneSpread": func(c *cluster.Config) { c.RTTCrossZoneSpread = 300 * time.Microsecond },
		"throttling":         func(c *cluster.Config) { *c = throttlingConfig(time.Millisecond) },
	}
	for name, tweak := range modeled {
		t.Run(name, func(t *testing.T) {
			env := sim.NewRealtimeEnv(1)
			defer env.Shutdown()
			cfg := sleeplessConfig()
			tweak(&cfg)
			rs := cluster.New(env, cfg)
			if name == "throttling" {
				makeThrottling(t, rs)
			}
			b := newRSBackend(rs)
			// Flow control stalls writes only; reads stay inline.
			readFree := name == "sleepless" || name == "throttling"
			if got := b.Inline(&Request{Op: OpFindByID, Node: 1}); got != readFree {
				t.Errorf("plain find_by_id: Inline = %t, want %t", got, readFree)
			}
			set := Mutation{Kind: "set", Collection: "c", DocID: "k", Doc: map[string]any{"v": 1}}
			writeFree := name == "sleepless"
			if got := b.Inline(&Request{Op: OpWriteBatch, Muts: []Mutation{set}}); got != writeFree {
				t.Errorf("one-mutation write_batch: Inline = %t, want %t", got, writeFree)
			}
			cases := map[string]Request{
				"AfterSecs":    {Op: OpFindByID, Node: 1, AfterSecs: 7},
				"AfterInc":     {Op: OpFindByID, Node: 1, AfterInc: 1},
				"linearizable": {Op: OpFindByID, Node: 1, ReadConcern: RCLinearizable},
			}
			for why, req := range cases {
				if b.Inline(&req) {
					t.Errorf("find_by_id with %s: Inline = true, want false", why)
				}
			}
			// A larger batch's work is bounded only by the request.
			if b.Inline(&Request{Op: OpWriteBatch, Muts: []Mutation{set, set}}) {
				t.Errorf("two-mutation write_batch: Inline = true, want false")
			}
			for _, op := range others {
				if b.Inline(&Request{Op: op}) {
					t.Errorf("%s: Inline = true, want false", op)
				}
			}
		})
	}
}

// TestThrottledWriteDoesNotHoldBurst: a write the primary's flow
// control will stall runs on its own goroutine, so the reader never
// sleeps with a response held for the burst. One raw write carries a
// point read (inline) and a write batch; the read's answer must arrive
// before the write's FlowControlDelay has elapsed, and the write's
// after it.
func TestThrottledWriteDoesNotHoldBurst(t *testing.T) {
	const delay = time.Second
	rs, addr, stop := startConfiguredServer(t, throttlingConfig(delay), ServerConfig{})
	defer stop()
	makeThrottling(t, rs)

	conn := dialRaw(t, addr)
	defer conn.Close()
	burst := appendRequestFrame(t, nil, &Request{ID: 1, Op: OpFindByID, Node: 0, Collection: "c", DocID: "k"})
	burst = appendRequestFrame(t, burst, &Request{ID: 2, Op: OpWriteBatch, Muts: []Mutation{
		{Kind: "set", Collection: "c", DocID: "k", Doc: storage.D{"v": int64(2)}},
	}})
	start := time.Now()
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(5 * delay))
	for _, want := range []uint64{1, 2} {
		var resp Response
		if err := readResponseFrame(conn, &resp); err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		if resp.ID != want || resp.Err != "" {
			t.Fatalf("response id %d err %q after %v, want id %d", resp.ID, resp.Err, took, want)
		}
		if want == 1 && took >= delay {
			t.Fatalf("read answered after %v, behind the throttled write (FlowControlDelay %v)", took, delay)
		}
		if want == 2 && took < delay {
			t.Fatalf("write answered after %v, want it throttled for %v", took, delay)
		}
	}
}

// Deterministic half of the wire benchmark gate: one serial FindByID
// round trip over loopback (client and server together) measures 5
// allocations and 439 B; the ceilings leave one allocation and 128 B
// of headroom.
const (
	maxRoundTripAllocs = 6
	maxRoundTripBytes  = 567
)

func TestSerialFindByIDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	rs, addr, stop := startSleeplessServer(t, ServerConfig{})
	defer stop()
	const docs = 64
	ids := make([]string, docs)
	err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C("bench")
		for i := range ids {
			ids[i] = fmt.Sprintf("doc%05d", i)
			if err := c.Insert(storage.D{"_id": ids[i], "val": int64(i), "pad": "abcdefghijklmnopqrstuvwxyz"}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	i := 0
	read := func() {
		id := ids[i%docs]
		i++
		res, err := cl.ExecRead(nil, 0, func(v cluster.ReadView) (any, error) {
			d, ok := v.FindByID("bench", id)
			if !ok {
				return nil, fmt.Errorf("%s missing", id)
			}
			return d, nil
		})
		if err != nil || res == nil {
			t.Fatalf("read %s: %v, %v", id, res, err)
		}
	}
	allocs := testing.AllocsPerRun(500, read)
	// Bytes the same way AllocsPerRun counts allocations: one P, a warm
	// path, the process-wide delta over many runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for j := 0; j < runs; j++ {
		read()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("serial FindByID round trip: %.1f allocs/op, %d B/op", allocs, bytes)
	if allocs > maxRoundTripAllocs {
		t.Errorf("%.1f allocs per round trip, want <= %d", allocs, maxRoundTripAllocs)
	}
	if bytes > maxRoundTripBytes {
		t.Errorf("%d bytes per round trip, want <= %d", bytes, maxRoundTripBytes)
	}
}

// TestInlineResponsesStartEmpty: the reader refills one Response for
// every request it serves inline, and the client's demux decodes every
// frame into one reused Response. A miss or an error after a hit must
// carry nothing of the hit, and a miss after an error nothing of the
// error.
func TestInlineResponsesStartEmpty(t *testing.T) {
	rs, addr, stop := startSleeplessServer(t, ServerConfig{})
	defer stop()
	loadMuxDocs(t, rs)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		resp, err := cl.roundTrip(&Request{Op: OpFindByID, Node: 0, Collection: "mux", DocID: muxKey(i)})
		if err != nil || !resp.Found || resp.doc["val"] != int64(i) {
			t.Fatalf("hit %d: err %v, response %+v", i, err, resp)
		}
		releaseResponse(resp)
		if _, err := cl.roundTrip(&Request{Op: OpFindByID, Node: 7, Collection: "mux", DocID: muxKey(i)}); err == nil {
			t.Fatal("a read at a node that does not exist succeeded")
		}
		resp, err = cl.roundTrip(&Request{Op: OpFindByID, Node: 0, Collection: "mux", DocID: "absent"})
		if err != nil {
			t.Fatalf("miss after an error response: %v", err)
		}
		if resp.Found || resp.doc != nil {
			t.Fatalf("miss after a hit carries found=%v doc=%v", resp.Found, resp.doc)
		}
		releaseResponse(resp)
	}
	snap, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.CounterValue(obs.Name("wire.dispatch", "path", "inline")); n < 9 {
		t.Errorf("wire.dispatch{path=inline} = %d, want all 9 reads served inline", n)
	}
}

// TestConnDecoderStrings: a server connection's decoder interns
// collection names and leaves a point read's DocID in its frame, so
// decoding a known point read allocates nothing, while a mutation's
// strings, which the oplog keeps, are the request's own.
func TestConnDecoderStrings(t *testing.T) {
	body, err := encodeRequest(nil, &Request{ID: 1, Op: OpFindByID, Collection: "bench", DocID: "doc00001"})
	if err != nil {
		t.Fatal(err)
	}
	dec := newConnDecoder()
	var first, second Request
	if err := dec.decode(body, &first); err != nil {
		t.Fatal(err)
	}
	if err := dec.decode(append([]byte(nil), body...), &second); err != nil {
		t.Fatal(err)
	}
	if second.Collection != "bench" || unsafe.StringData(second.Collection) != unsafe.StringData(first.Collection) {
		t.Fatalf("collection %q not interned", second.Collection)
	}
	id := unsafe.Pointer(unsafe.StringData(first.DocID))
	if first.DocID != "doc00001" || uintptr(id) < uintptr(unsafe.Pointer(&body[0])) ||
		uintptr(id) >= uintptr(unsafe.Pointer(&body[0]))+uintptr(len(body)) {
		t.Fatalf("DocID %q does not alias its frame", first.DocID)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		second = Request{}
		if err := dec.decode(body, &second); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decoding a point read allocates %.1f times, want 0", allocs)
	}

	write, err := encodeRequest(nil, &Request{ID: 2, Op: OpWriteBatch,
		Muts: []Mutation{{Kind: "delete", Collection: "bench", DocID: "doc00002"}}})
	if err != nil {
		t.Fatal(err)
	}
	var w Request
	if err := dec.decode(write, &w); err != nil {
		t.Fatal(err)
	}
	clear(write)
	if m := w.Muts[0]; m.Collection != "bench" || m.DocID != "doc00002" {
		t.Fatalf("mutation strings changed with their frame: %q/%q", m.Collection, m.DocID)
	}

	for i := 0; i < 2*maxInterned; i++ {
		b, _ := encodeRequest(nil, &Request{Op: OpFindByID, Collection: fmt.Sprintf("c%d", i)})
		if err := dec.decode(b, &w); err != nil {
			t.Fatal(err)
		}
	}
	if len(dec.colls) != maxInterned {
		t.Fatalf("%d interned names, want the bound %d", len(dec.colls), maxInterned)
	}
}
