package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// dialRaw opens a bare connection that has exchanged hellos, for
// tests that write frames by hand.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := clientHandshake(conn); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return conn
}

// appendRequestFrame appends req to dst as one length-prefixed frame.
func appendRequestFrame(t *testing.T, dst []byte, req *Request) []byte {
	t.Helper()
	start := len(dst)
	dst, err := encodeRequest(beginFrame(dst), req)
	if err == nil {
		err = finishFrame(dst, start)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// readResponseFrame reads one length-prefixed response frame from r.
func readResponseFrame(r io.Reader, resp *Response) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return decodeResponse(body, resp)
}

func TestFrameRoundTrip(t *testing.T) {
	in := Request{ID: 7, Op: OpFindByID, Node: 1, Collection: "c", DocID: "k"}
	frame := appendRequestFrame(t, nil, &in)
	body, err := (&frameReader{r: bufio.NewReader(bytes.NewReader(frame))}).next()
	if err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := decodeRequest(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Op != in.Op || out.Node != in.Node ||
		out.Collection != in.Collection || out.DocID != in.DocID {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	fr := &frameReader{r: bufio.NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}))}
	if _, err := fr.next(); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// TestFilterEncodingRoundTrip: a hand-built filter whose values are
// plain Go ints, not normalized int64s, still encodes, and decodes to
// the same matching semantics.
func TestFilterEncodingRoundTrip(t *testing.T) {
	f := storage.Filter{
		"a": storage.Eq(5),
		"b": storage.Gt("x"),
		"c": storage.In(1, 2, 3),
		"d": storage.Exists(),
		"e": storage.Lte(2.5),
	}
	enc, err := appendFilter(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := decodeFilter(enc)
	if err != nil {
		t.Fatal(err)
	}
	doc := storage.D{"a": int64(5), "b": "z", "c": int64(2), "d": true, "e": 2.5}
	nd, _ := doc.Normalized()
	if !f.Matches(nd) || !dec.Matches(nd) {
		t.Fatal("filters disagree on matching doc")
	}
	bad := storage.D{"a": int64(6), "b": "z", "c": int64(2), "d": true, "e": 2.5}
	nb, _ := bad.Normalized()
	if dec.Matches(nb) {
		t.Fatal("decoded filter matched non-matching doc")
	}
}

// startTestServer runs a real-time replica set behind a TCP listener.
func startTestServer(t *testing.T) (*Server, *cluster.ReplicaSet, string, func()) {
	t.Helper()
	env := sim.NewRealtimeEnv(1)
	cfg := cluster.DefaultConfig()
	// Tiny service times: the tests exercise protocol correctness, not
	// queueing.
	cfg.ReadCost = 50 * time.Microsecond
	cfg.WriteCost = 100 * time.Microsecond
	cfg.ApplyCost = 20 * time.Microsecond
	cfg.GetMoreCost = 20 * time.Microsecond
	cfg.StatusCost = 20 * time.Microsecond
	cfg.RTTSameZone = 100 * time.Microsecond
	cfg.RTTCrossZoneBase = 200 * time.Microsecond
	cfg.ReplIdlePoll = 2 * time.Millisecond
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	rs := cluster.New(env, cfg)
	srv := NewServer(env, rs, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	stop := func() {
		srv.Close()
		env.Shutdown()
	}
	return srv, rs, ln.Addr().String(), stop
}

func TestWireTopologyAndPing(t *testing.T) {
	_, rs, addr, stop := startTestServer(t)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.PrimaryID(); got != rs.PrimaryID() {
		t.Fatalf("primary %d, want %d", got, rs.PrimaryID())
	}
	if len(cl.NodeIDs()) != 3 {
		t.Fatalf("nodes %v", cl.NodeIDs())
	}
	if cl.Zone(0) == "" || cl.Zone(1) == "" {
		t.Fatal("zones missing")
	}
	p := sim.NewRealtimeEnv(2).Adhoc("test")
	if rtt := cl.Ping(p, 0); rtt <= 0 || rtt > time.Second {
		t.Fatalf("implausible rtt %v", rtt)
	}
}

func TestWireWriteReadAcrossNodes(t *testing.T) {
	_, rs, addr, stop := startTestServer(t)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := sim.NewRealtimeEnv(3).Adhoc("test")

	if _, err := cl.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
		if err := tx.Insert("kv", storage.D{"_id": "a", "v": 1, "tag": "x"}); err != nil {
			return nil, err
		}
		return nil, tx.Insert("kv", storage.D{"_id": "b", "v": 2, "tag": "x"})
	}); err != nil {
		t.Fatal(err)
	}
	// Read from the primary immediately.
	res, err := cl.ExecRead(p, rs.PrimaryID(), func(v cluster.ReadView) (any, error) {
		d, ok := v.FindByID("kv", "a")
		if !ok {
			return nil, nil
		}
		return d.Int("v"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.(int64) != 1 {
		t.Fatalf("v=%v", res)
	}
	// Wait for replication; read from a secondary.
	time.Sleep(200 * time.Millisecond)
	secID := rs.SecondaryIDs()[0]
	res, err = cl.ExecRead(p, secID, func(v cluster.ReadView) (any, error) {
		docs := v.Find("kv", storage.Filter{"tag": storage.Eq("x")}, 0)
		return len(docs), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 2 {
		t.Fatalf("secondary sees %v docs, want 2", res)
	}
	// Count and FindMany.
	res, err = cl.ExecRead(p, secID, func(v cluster.ReadView) (any, error) {
		n := v.Count("kv", storage.Filter{"v": storage.Gte(1)})
		docs := v.FindManyByID("kv", []string{"a", "b", "missing"})
		return []int{n, len(docs)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pair := res.([]int)
	if pair[0] != 2 || pair[1] != 2 {
		t.Fatalf("count=%d findMany=%d", pair[0], pair[1])
	}
}

func TestWireReadModifyWriteTransaction(t *testing.T) {
	_, _, addr, stop := startTestServer(t)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := sim.NewRealtimeEnv(4).Adhoc("test")
	if _, err := cl.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("acct", storage.D{"_id": "x", "balance": 100})
	}); err != nil {
		t.Fatal(err)
	}
	// Read-modify-write through the remote transaction.
	if _, err := cl.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
		d, ok := tx.FindByID("acct", "x")
		if !ok {
			t.Error("doc missing in txn read")
			return nil, nil
		}
		return nil, tx.Set("acct", "x", storage.D{"balance": d.Int("balance") + 50})
	}); err != nil {
		t.Fatal(err)
	}
	res, err := cl.ExecRead(p, cl.PrimaryID(), func(v cluster.ReadView) (any, error) {
		d, _ := v.FindByID("acct", "x")
		return d.Int("balance"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.(int64) != 150 {
		t.Fatalf("balance=%v", res)
	}
}

func TestWireServerStatus(t *testing.T) {
	_, rs, addr, stop := startTestServer(t)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := sim.NewRealtimeEnv(5).Adhoc("test")
	st := cl.ServerStatus(p, rs.PrimaryID())
	if len(st.Members) != 3 {
		t.Fatalf("members %d", len(st.Members))
	}
	if st.Primary != rs.PrimaryID() {
		t.Fatalf("primary %d", st.Primary)
	}
	if st.MaxSecondaryStalenessSecs() > 5 {
		t.Fatalf("staleness %d on idle cluster", st.MaxSecondaryStalenessSecs())
	}
}

// TestDecongestantOverWire runs the full stack — driver.Client, Read
// Balancer, Router — against the TCP server, proving the wire client
// satisfies the same contract as the in-process cluster.
func TestDecongestantOverWire(t *testing.T) {
	_, _, addr, stop := startTestServer(t)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	env := sim.NewRealtimeEnv(6)
	defer env.Shutdown()
	params := core.DefaultParams()
	params.Period = 300 * time.Millisecond
	params.StalenessPoll = 100 * time.Millisecond
	params.RTTPing = 100 * time.Millisecond
	sys := core.NewSystem(env, cl, params)

	p := env.Adhoc("seed")
	if _, _, err := sys.Router.Write(p, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("kv", storage.D{"_id": "hot", "v": 0})
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // replicate

	done := make(chan struct{})
	env.Spawn("reader", func(p sim.Proc) {
		defer close(done)
		for i := 0; i < 200; i++ {
			if _, _, _, err := sys.Router.Read(p, func(v cluster.ReadView) (any, error) {
				d, _ := v.FindByID("kv", "hot")
				return d.Int("v"), nil
			}); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
		}
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("reads over wire timed out")
	}
	prim, sec := sys.Router.Counts(false)
	if prim+sec != 200 {
		t.Fatalf("counted %d reads", prim+sec)
	}
	if sec == 0 {
		t.Error("no reads routed to secondaries despite 10% floor")
	}
	if sys.Balancer.Stats().StatusPolls == 0 {
		t.Error("balancer never polled serverStatus over the wire")
	}
}

func TestWireConcurrentClients(t *testing.T) {
	_, _, addr, stop := startTestServer(t)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	env := sim.NewRealtimeEnv(7)
	defer env.Shutdown()
	p := env.Adhoc("seed")
	if _, err := cl.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("kv", storage.D{"_id": "k", "v": 1})
	}); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			q := env.Adhoc("worker")
			for j := 0; j < 50; j++ {
				if _, err := cl.ExecRead(q, 0, func(v cluster.ReadView) (any, error) {
					v.FindByID("kv", "k")
					return nil, nil
				}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent clients timed out")
		}
	}
}

func TestWireBadRequests(t *testing.T) {
	_, _, addr, stop := startTestServer(t)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.roundTrip(&Request{Op: "bogus"}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := cl.roundTrip(&Request{Op: OpFindByID, Node: 99}); err == nil {
		t.Error("bad node accepted")
	}
	if _, err := cl.roundTrip(&Request{Op: OpWriteBatch, Muts: []Mutation{{Kind: "explode"}}}); err == nil {
		t.Error("unknown mutation kind accepted")
	}
	// The connection must still work after errors.
	if _, err := cl.roundTrip(&Request{Op: OpTopology}); err != nil {
		t.Fatalf("connection broken after error responses: %v", err)
	}
}

var _ = driver.Primary // keep driver imported for the full-stack test

// TestCausalSessionOverWire: read-your-writes at a secondary through
// the TCP protocol's afterClusterTime support.
func TestCausalSessionOverWire(t *testing.T) {
	env := sim.NewRealtimeEnv(10)
	cfg := cluster.DefaultConfig()
	cfg.ReadCost = 50 * time.Microsecond
	cfg.WriteCost = 100 * time.Microsecond
	cfg.ApplyCost = 20 * time.Microsecond
	cfg.ReplIdlePoll = 150 * time.Millisecond // visible staleness window
	cfg.HeartbeatInterval = 50 * time.Millisecond
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	rs := cluster.New(env, cfg)
	srv := NewServer(env, rs, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() { srv.Close(); env.Shutdown() }()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	clientEnv := sim.NewRealtimeEnv(11)
	defer clientEnv.Shutdown()
	sess := driver.NewClient(clientEnv, cl).NewSession()
	if !sess.Causal() {
		t.Fatal("wire session not causal")
	}
	p := clientEnv.Adhoc("test")
	if _, _, err := sess.Write(p, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("kv", storage.D{"_id": "ryw", "v": 1})
	}); err != nil {
		t.Fatal(err)
	}
	if sess.OperationTime().IsZero() {
		t.Fatal("token not advanced by wire write")
	}
	// Session read with Secondary preference must observe the write,
	// even though replication polls only every 150ms.
	res, _, _, err := sess.Read(p, driver.ReadOptions{Pref: driver.Secondary},
		func(v cluster.ReadView) (any, error) {
			_, ok := v.FindByID("kv", "ryw")
			return ok, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if !res.(bool) {
		t.Fatal("causal session read over wire missed the session's write")
	}
}

// TestWireMetricsRoundTrip is the acceptance check for the metrics op:
// after a workload runs over the wire, a plain client fetch shows
// nonzero cluster-, driver- and balancer-level instruments — the
// latter two arriving via metrics_push from the client side, where
// those layers actually live.
func TestWireMetricsRoundTrip(t *testing.T) {
	_, rs, addr, stop := startTestServer(t)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	env := sim.NewRealtimeEnv(12)
	defer env.Shutdown()
	params := core.DefaultParams()
	params.Period = 300 * time.Millisecond
	params.StalenessPoll = 100 * time.Millisecond
	params.RTTPing = 100 * time.Millisecond
	sys := core.NewSystem(env, cl, params)

	p := env.Adhoc("seed")
	if _, _, err := sys.Router.Write(p, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("kv", storage.D{"_id": "m", "v": 0})
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	env.Spawn("reader", func(p sim.Proc) {
		defer close(done)
		for i := 0; i < 100; i++ {
			sys.Router.Read(p, func(v cluster.ReadView) (any, error) {
				v.FindByID("kv", "m")
				return nil, nil
			})
		}
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workload timed out")
	}

	// Push the client-side registry (driver + balancer instruments).
	if err := cl.PushMetrics("app", sys.Client.Metrics().Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		obs.Name("cluster.reads", "node", "0"),
		obs.Name("wire.requests", "op", OpFindByID),
		obs.Name("app.driver.selections", "pref", "primary"),
	} {
		if snap.CounterValue(name) == 0 {
			t.Errorf("%s is zero in the fetched snapshot", name)
		}
	}
	if _, ok := snap.Get("app.balancer.fraction_pct"); !ok {
		t.Error("pushed balancer gauge missing from the fetched snapshot")
	}
	if in, ok := snap.Get(obs.Name("wire.request_latency", "op", OpFindByID)); !ok || in.Hist == nil || in.Hist.Count == 0 {
		t.Error("per-op latency histogram empty")
	}
	// A re-push replaces, not duplicates, the source's snapshot.
	if err := cl.PushMetrics("app", sys.Client.Metrics().Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap2, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, in := range snap2.Instruments {
		if in.Name == "app.balancer.fraction_pct" {
			seen++
		}
	}
	if seen != 1 {
		t.Errorf("re-push left %d copies of the gauge, want 1", seen)
	}
	_ = rs
}

// TestWirePingDownNodeIsNegative: a down node's probe fails in-band,
// so client-side RTT estimators skip it.
func TestWirePingDownNodeIsNegative(t *testing.T) {
	_, rs, addr, stop := startTestServer(t)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := sim.NewRealtimeEnv(13).Adhoc("test")
	down := rs.SecondaryIDs()[0]
	rs.SetDown(down, true)
	if rtt := cl.Ping(p, down); rtt >= 0 {
		t.Fatalf("ping of a down node returned %v, want negative", rtt)
	}
	if rtt := cl.Ping(p, rs.PrimaryID()); rtt <= 0 {
		t.Fatalf("ping of a live node returned %v", rtt)
	}
}
