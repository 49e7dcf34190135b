package wire

// Tests for the client's send path: concurrent callers' frames leave in
// shared writes, and a connection that dies mid-burst releases every
// caller, whichever stage its frame had reached.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// writeSyscalls reads this process's count of write-family syscalls.
func writeSyscalls() (uint64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "syscw: "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("no syscw line in /proc/self/io")
}

// loadMuxDocs bootstraps the 64 documents muxKey names.
func loadMuxDocs(t *testing.T, rs *cluster.ReplicaSet) {
	t.Helper()
	err := rs.Bootstrap(func(s *storage.Store) error {
		c := s.C("mux")
		for i := 0; i < 64; i++ {
			if err := c.Insert(storage.D{"_id": muxKey(i), "val": int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readMux point-reads one of the loaded documents through cl.
func readMux(cl *Client, i int) error {
	res, err := cl.ExecRead(nil, 0, func(v cluster.ReadView) (any, error) {
		d, ok := v.FindByID("mux", muxKey(i%64))
		if !ok {
			return nil, fmt.Errorf("%s missing", muxKey(i%64))
		}
		return d, nil
	})
	if err == nil && res == nil {
		err = fmt.Errorf("%s: nil result", muxKey(i%64))
	}
	return err
}

// TestConcurrentCallersShareWrites counts write syscalls per round
// trip, client and server together, with one, two and four closed-loop
// callers sharing one Client on one P. A lone caller pays one write
// each way. With more callers the flusher yields once before writing,
// so the callers whose responses just arrived append to its burst, and
// the server's reader answers a burst with one writev.
func TestConcurrentCallersShareWrites(t *testing.T) {
	if _, err := writeSyscalls(); err != nil {
		t.Skipf("write syscall counter unreadable: %v", err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rs, addr, stop := startSleeplessServer(t, ServerConfig{})
	defer stop()
	loadMuxDocs(t, rs)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const perCaller = 3000
	for _, c := range []struct {
		callers  int
		min, max float64
	}{{1, 1.95, 2.05}, {2, 0, 1.15}, {4, 0, 0.65}} {
		for i := 0; i < 100; i++ { // warm the pools and the connection
			if err := readMux(cl, i); err != nil {
				t.Fatal(err)
			}
		}
		before, err := writeSyscalls()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, c.callers)
		for g := 0; g < c.callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perCaller; i++ {
					if err := readMux(cl, g*perCaller+i); err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		after, err := writeSyscalls()
		if err != nil {
			t.Fatal(err)
		}
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		per := float64(after-before) / float64(c.callers*perCaller)
		t.Logf("%d callers: %.3f write syscalls per round trip", c.callers, per)
		if per < c.min || per > c.max {
			t.Errorf("%d callers: %.3f write syscalls per round trip, want within [%.2f, %.2f]",
				c.callers, per, c.min, c.max)
		}
	}
}

// TestCallersReturnWhenServerDiesMidBurst: many callers share one
// connection, sending reads and writes (inline on the server) and
// pings (spawned), when the server closes. Every caller must come back
// with a result or an error before a deadline — including one whose
// frame sat in a burst behind a yielding flusher — and the same Client
// must then redial a new server on the same address and serve again.
func TestCallersReturnWhenServerDiesMidBurst(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		env := sim.NewRealtimeEnv(1)
		defer env.Shutdown()
		rs := cluster.New(env, sleeplessConfig())
		loadMuxDocs(t, rs)
		serve := func(addr string) (*Server, string) {
			t.Helper()
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(env, rs, nil)
			go srv.Serve(ln)
			return srv, ln.Addr().String()
		}
		srv, addr := serve("127.0.0.1:0")
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		const callers = 16
		var ops atomic.Int64
		exited := make(chan struct{}, callers)
		for g := 0; g < callers; g++ {
			go func(g int) {
				defer func() { exited <- struct{}{} }()
				for i := 0; ; i++ {
					var err error
					switch i % 4 {
					case 3:
						if cl.Ping(nil, g%3) < 0 {
							err = fmt.Errorf("ping failed")
						}
					case 2:
						_, err = cl.ExecWrite(nil, func(tx cluster.WriteTxn) (any, error) {
							return nil, tx.Set("mux", muxKey(g), storage.D{"val": int64(g)})
						})
					default:
						err = readMux(cl, g+i)
					}
					if err != nil {
						return // the server is gone
					}
					ops.Add(1)
				}
			}(g)
		}
		deadline := time.After(10 * time.Second)
		for ops.Load() < 2000 {
			select {
			case <-deadline:
				t.Fatalf("%d operations in 10 s with the server up", ops.Load())
			case <-time.After(time.Millisecond):
			}
		}
		srv.Close()
		deadline = time.After(10 * time.Second)
		for g := 0; g < callers; g++ {
			select {
			case <-exited:
			case <-deadline:
				t.Fatalf("%d of %d callers still waiting 10 s after the server closed", callers-g, callers)
			}
		}

		srv, _ = serve(addr)
		defer srv.Close()
		for i := 0; i < 10; i++ {
			if err := readMux(cl, i); err != nil {
				t.Fatalf("read after redial: %v", err)
			}
		}
	})
}

// TestUnencodableRequestMidBurst: a request that fails to encode while
// other callers' frames wait for a yielding flusher returns its error
// and leaves the waiting frames whole; the flusher then writes them and
// their callers get their responses.
func TestUnencodableRequestMidBurst(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		rs, addr, stop := startSleeplessServer(t, ServerConfig{})
		defer stop()
		loadMuxDocs(t, rs)
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		mc, err := cl.getMux()
		if err != nil {
			t.Fatal(err)
		}
		send := func(id uint64) chan *Response {
			t.Helper()
			ch, err := mc.register(id)
			if err != nil {
				t.Fatal(err)
			}
			req := &Request{ID: id, Op: OpFindByID, Collection: "mux", DocID: muxKey(int(id))}
			if err := mc.send(req); err != nil {
				t.Fatal(err)
			}
			return ch
		}

		// Stand in for a flusher that has taken the lead and is
		// yielding: a frame sent now waits in mc.out.
		mc.wmu.Lock()
		mc.flushing = true
		mc.wmu.Unlock()
		waiting := send(1 << 40)
		mc.wmu.Lock()
		queued := len(*mc.out)
		mc.wmu.Unlock()

		bad := &Request{ID: 1<<40 + 1, Op: OpFind, Collection: "mux",
			Filter: storage.Filter{"val": {Op: storage.OpEq, Value: make(chan int)}}}
		if err := mc.send(bad); err == nil {
			t.Fatal("unencodable filter sent")
		}
		mc.wmu.Lock()
		if got := len(*mc.out); got != queued {
			t.Errorf("waiting frames are %d bytes after the failed encode, want %d", got, queued)
		}
		mc.flushing = false // the flusher is done; the next sender writes the burst
		mc.wmu.Unlock()

		next := send(1<<40 + 2)
		for _, ch := range []chan *Response{waiting, next} {
			select {
			case resp, ok := <-ch:
				if !ok || resp.Err != "" {
					t.Fatalf("response: ok %t, %+v", ok, resp)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no response to a frame sent alongside the failed encode")
			}
		}
		if err := readMux(cl, 3); err != nil {
			t.Fatal(err)
		}
	})
}
