package wire

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/obs"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// startAdmissionServer mirrors startTestServer but with an explicit
// ServerConfig and an optional cluster-config hook for shaping service
// times.
func startAdmissionServer(t *testing.T, scfg ServerConfig, tweak func(*cluster.Config)) (*cluster.ReplicaSet, string, func()) {
	t.Helper()
	env := sim.NewRealtimeEnv(1)
	cfg := cluster.DefaultConfig()
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
	if tweak != nil {
		tweak(&cfg)
	}
	rs := cluster.New(env, cfg)
	srv := NewServerWith(env, rs, nil, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	stop := func() {
		srv.Close()
		env.Shutdown()
	}
	return rs, ln.Addr().String(), stop
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestIdleTimeoutReapsStalledClient covers the connection-lifecycle
// bug: a client that connects and goes silent — before the handshake
// or mid-frame — must be reaped by the idle timeout, and the
// connection gauges must come back down.
func TestIdleTimeoutReapsStalledClient(t *testing.T) {
	rs, addr, stop := startAdmissionServer(t, ServerConfig{IdleTimeout: 60 * time.Millisecond}, nil)
	defer stop()

	// Silent before the handshake.
	mute, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()

	// Handshakes, then stalls two bytes into a frame header.
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if err := clientHandshake(stalled); err != nil {
		t.Fatal(err)
	}
	if _, err := stalled.Write([]byte{0x00, 0x00}); err != nil {
		t.Fatal(err)
	}

	for _, c := range []net.Conn{mute, stalled} {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if _, err := c.Read(buf); err == nil {
			t.Fatal("stalled connection still open after idle timeout")
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("server never closed the stalled connection")
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		snap := rs.Metrics().Snapshot()
		return snap.CounterValue("wire.idle_closed") >= 2 &&
			snap.GaugeValue("status.connections.current") == 0
	}, "idle_closed/connection gauges never settled")
}

// TestIdleTimeoutSparesBusyConn: a connection whose only silence is
// waiting for its own slow responses must not be reaped.
func TestIdleTimeoutSparesBusyConn(t *testing.T) {
	_, addr, stop := startAdmissionServer(t,
		ServerConfig{IdleTimeout: 40 * time.Millisecond},
		func(cfg *cluster.Config) {
			cfg.ReadCost = 200 * time.Millisecond
			cfg.CostJitter = -1
		})
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Service time is 5x the idle timeout; several probe deadlines fire
	// while the request is in dispatch.
	if _, err := cl.roundTrip(&Request{Op: OpFindByID, Node: 0, Collection: "c", DocID: "k"}); err != nil {
		t.Fatalf("slow request on busy conn failed: %v", err)
	}
}

// TestMaxConnsCap: connections beyond the accept-stage cap are refused,
// each refused Dial counts exactly one rejection (the client does not
// dial again), and capacity freed by a close is reusable.
func TestMaxConnsCap(t *testing.T) {
	rs, addr, stop := startAdmissionServer(t, ServerConfig{MaxConns: 1}, nil)
	defer stop()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	const refused = 3
	for i := 0; i < refused; i++ {
		if _, err := Dial(addr); err == nil {
			t.Fatal("connection admitted past MaxConns=1")
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		snap := rs.Metrics().Snapshot()
		return snap.GaugeValue("status.connections.current") == 1 &&
			snap.GaugeValue("status.connections.available") == 0
	}, "rejection not reflected in connection gauges")
	// The server counts a rejection before it closes the socket, so
	// every refused Dial has been counted by the time it returned.
	if got := rs.Metrics().Snapshot().CounterValue("status.connections.rejected"); got != refused {
		t.Fatalf("status.connections.rejected = %d after %d refused dials, want %d", got, refused, refused)
	}

	cl.Close()
	waitFor(t, 2*time.Second, func() bool {
		cl2, err := Dial(addr)
		if err != nil {
			return false
		}
		cl2.Close()
		return true
	}, "freed connection slot never became dialable")
}

// TestShedReturnsRetryable: past the server-wide inflight ceiling a
// request is answered with CodeOverloaded — observable through
// IsRetryable.
func TestShedReturnsRetryable(t *testing.T) {
	rs, addr, stop := startAdmissionServer(t,
		ServerConfig{ShedInflight: 1},
		func(cfg *cluster.Config) {
			cfg.ReadCost = 300 * time.Millisecond
			cfg.CostJitter = -1
		})
	defer stop()

	t.Run("v2", func(t *testing.T) {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		slow := make(chan error, 1)
		go func() {
			_, err := cl.roundTrip(&Request{Op: OpFindByID, Node: 0, Collection: "c", DocID: "k"})
			slow <- err
		}()
		// Wait until the slow read is in service, then pile on.
		waitFor(t, 2*time.Second, func() bool {
			return rs.Metrics().Snapshot().GaugeValue("status.inflight_requests") >= 1
		}, "slow read never entered service")
		_, err = cl.roundTrip(&Request{Op: OpPing, Node: 0})
		if err == nil {
			t.Fatal("request past ShedInflight was served, want shed")
		}
		if !IsRetryable(err) {
			t.Fatalf("shed error not retryable: %v", err)
		}
		if !strings.Contains(err.Error(), "overloaded") {
			t.Fatalf("shed error message %q", err)
		}
		if err := <-slow; err != nil {
			t.Fatalf("admitted slow request failed: %v", err)
		}
	})
	if got := rs.Metrics().Snapshot().CounterValue(obs.Name("wire.requests_shed", "reason", "overload")); got < 1 {
		t.Fatalf("wire.requests_shed = %d, want >= 1", got)
	}
}

// TestServeCloseLeavesNoGoroutines: a served and closed server — with
// live clients, backpressure, and a stalled connection in the mix —
// must return to the baseline goroutine count.
func TestServeCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	rs, addr, stop := startAdmissionServer(t, ServerConfig{
		IdleTimeout:        200 * time.Millisecond,
		MaxInflightPerConn: 2,
		ShedInflight:       64,
	}, nil)
	_ = rs
	var clients []*Client
	for i := 0; i < 4; i++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		for j := 0; j < 8; j++ {
			if _, err := cl.roundTrip(&Request{Op: OpPing, Node: 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One connection left to stall; the reaper must not leak its
	// handler either.
	mute, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	mute.Close()
	for _, cl := range clients {
		cl.Close()
	}
	stop()
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	}, "goroutines leaked after Serve/Close")
}

// TestServeAfterCloseServesNothing: a Serve that starts after Close
// returns nil at once and closes its listener, so a client dialing
// afterwards gets no topology reply.
func TestServeAfterCloseServesNothing(t *testing.T) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	srv := NewServer(env, cluster.New(env, sleeplessConfig()), nil)
	srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after Close = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve after Close is still accepting")
	}
	if cl, err := Dial(ln.Addr().String()); err == nil {
		cl.Close()
		t.Fatal("a client dialed after Close got a topology reply")
	}
}

// TestPrometheusServerStatusFamilies round-trips the full metrics
// surface over the wire — the same snapshot the /metrics endpoint
// renders — and checks both that every exposition line parses and that
// the serverStatus families (status, replstatus, collstats, dbstats)
// are all present.
func TestPrometheusServerStatusFamilies(t *testing.T) {
	rs, addr, stop := startAdmissionServer(t, ServerConfig{MaxConns: 8, ShedInflight: 64}, nil)
	defer stop()
	if err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C("orders")
		for i := 0; i < 10; i++ {
			if err := c.Insert(storage.D{"_id": fmt.Sprintf("o%d", i), "v": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Touch the read path so request counters and latency histograms
	// have observations.
	for i := 0; i < 5; i++ {
		if _, err := cl.roundTrip(&Request{Op: OpFindByID, Node: 0, Collection: "orders", DocID: "o1"}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := cl.FetchMetrics()
	if err != nil {
		t.Fatal(err)
	}
	text := snap.Prometheus()

	// Strict pass over every line: TYPE comments and `name{labels} value`
	// samples only.
	fams := map[string]bool{}
	validName := func(s string) bool {
		if s == "" {
			return false
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' ||
				(c >= '0' && c <= '9' && i > 0)
			if !ok {
				return false
			}
		}
		return true
	}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 || !validName(parts[2]) {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			fams[parts[2]] = true
			continue
		}
		sample := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				t.Fatalf("line %d: unterminated labels %q", ln+1, line)
			}
			sample = line[:i] + line[j+1:]
		}
		fields := strings.Fields(sample)
		if len(fields) != 2 || !validName(fields[0]) {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
	}

	for _, want := range []string{
		"status_connections_current", "status_connections_available",
		"status_inflight_requests", "status_queue_depth",
		"status_mem_heap_bytes", "status_mem_sys_bytes",
		"status_goroutines", "status_asserts",
		"replstatus_state", "replstatus_optime_secs", "replstatus_lag_secs",
		"collstats_docs", "collstats_indexes", "collstats_encoded_bytes",
		"dbstats_collections", "dbstats_docs", "dbstats_indexes", "dbstats_encoded_bytes",
		"wire_requests", "wire_request_latency",
	} {
		if !fams[want] {
			t.Fatalf("family %s missing from exposition:\n%s", want, text)
		}
	}
	// The scraping connection itself must be visible in the gauges.
	if got := snap.GaugeValue("status.connections.current"); got < 1 {
		t.Fatalf("status.connections.current = %d, want >= 1", got)
	}
	if got := snap.GaugeValue("dbstats.docs"); got != 10 {
		t.Fatalf("dbstats.docs = %d, want 10", got)
	}
}
