package wire

// Tests for per-connection request pipelining: multiple requests in
// flight on one socket, responses matched back by id in completion
// order rather than arrival order.

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/obs"
	"decongestant/internal/oplog"
	"decongestant/internal/storage"
)

func muxKey(i int) string { return fmt.Sprintf("key%03d", i) }

// TestPipelinedResponsesOutOfOrder proves the server really pipelines:
// a read carrying an afterClusterTime beyond the node's applied optime
// blocks in dispatch, a ping sent behind it on the SAME connection
// completes first, and once a write advances the optime the blocked
// read's response arrives tagged with its original request id. The
// causal blocking makes the out-of-order completion deterministic —
// no sleep-based timing.
func TestPipelinedResponsesOutOfOrder(t *testing.T) {
	_, _, addr, stop := startTestServer(t)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Seed one document and capture its commit optime. The test server
	// has the noop writer off, so nothing else advances the optime.
	_, commit, err := cl.ExecWriteTracked(nil, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("c", storage.D{"_id": "k", "v": int64(1)})
	})
	if err != nil {
		t.Fatal(err)
	}
	if commit.IsZero() {
		t.Fatal("zero commit optime")
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	// Request 101: a read on a secondary that must wait for the NEXT
	// oplog entry — it blocks server-side until the second write below.
	after := oplog.OpTime{Secs: commit.Secs, Inc: commit.Inc + 1}
	blocked := &Request{
		ID: 101, Op: OpFindByID, Node: 1, Collection: "c", DocID: "k",
		AfterSecs: after.Secs, AfterInc: after.Inc,
	}
	if err := WriteFrame(conn, blocked); err != nil {
		t.Fatal(err)
	}
	// Request 102: a ping pipelined behind the blocked read.
	if err := WriteFrame(conn, &Request{ID: 102, Op: OpPing, Node: 1}); err != nil {
		t.Fatal(err)
	}

	var first Response
	if err := ReadFrame(conn, &first); err != nil {
		t.Fatal(err)
	}
	if first.ID != 102 {
		t.Fatalf("first response id = %d, want the pipelined ping (102)", first.ID)
	}
	if first.Err != "" {
		t.Fatalf("ping failed: %s", first.Err)
	}

	// Unblock request 101 by committing the entry it waits for.
	if _, _, err := cl.ExecWriteTracked(nil, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Set("c", "k", storage.D{"v": int64(2)})
	}); err != nil {
		t.Fatal(err)
	}

	var second Response
	if err := ReadFrame(conn, &second); err != nil {
		t.Fatal(err)
	}
	if second.ID != 101 {
		t.Fatalf("second response id = %d, want the blocked read (101)", second.ID)
	}
	if second.Err != "" {
		t.Fatalf("blocked read failed: %s", second.Err)
	}
	if !second.Found {
		t.Fatal("blocked read found no document")
	}
	doc, err := jsonToDoc(second.Doc)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Int("v") != 2 {
		t.Fatalf("blocked read saw v=%d, want the post-write value 2", doc.Int("v"))
	}
}

// TestClientMultiplexesOneSocket drives many concurrent reads, with a
// ping in every fifth slot, through one Client and checks every caller
// gets its own answer back — the id-matching demux under real
// concurrency. On the sleepless deployment the reads run on the
// server's reader while the pings run on goroutines of their own, so
// both send to the connection's writer at once.
func TestClientMultiplexesOneSocket(t *testing.T) {
	t.Run("modeled", func(t *testing.T) {
		_, rs, addr, stop := startTestServer(t)
		defer stop()
		multiplexOneSocket(t, rs, addr)
	})
	t.Run("sleepless", func(t *testing.T) {
		rs, addr, stop := startSleeplessServer(t, ServerConfig{})
		defer stop()
		multiplexOneSocket(t, rs, addr)
	})
}

func multiplexOneSocket(t *testing.T, rs *cluster.ReplicaSet, addr string) {
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
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if i%5 == 4 {
					if cl.Ping(nil, g%3) < 0 {
						select {
						case errs <- fmt.Errorf("ping node %d failed", g%3):
						default:
						}
						return
					}
					continue
				}
				want := (g*50 + i) % 64
				res, err := cl.ExecRead(nil, want%3, func(v cluster.ReadView) (any, error) {
					d, ok := v.FindByID("mux", muxKey(want))
					if !ok {
						return nil, nil
					}
					return d, nil
				})
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				d, ok := res.(storage.Document)
				if !ok || d.Int("val") != int64(want) {
					select {
					case errs <- fmt.Errorf("got %v for key %d", res, want):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestHeldResponseFlushedBeforeBlock: the reader holds an inline
// response back while the next request already sits in its read
// buffer, and must flush it before it can block. One raw write carries
// a plain point read (run on the reader) and then a read whose
// afterClusterTime is past the applied optime (spawned; it blocks until
// the next write). The first response must arrive while the second
// request is still blocked — with no inflight cap, where the reader's
// next block is the socket read, and with MaxInflightPerConn 1 and a
// third plain read behind the blocked one, where the reader blocks on
// the connection's inflight budget instead.
func TestHeldResponseFlushedBeforeBlock(t *testing.T) {
	for _, scfg := range []ServerConfig{{}, {MaxInflightPerConn: 1}} {
		capped := scfg.MaxInflightPerConn > 0
		t.Run(fmt.Sprintf("MaxInflightPerConn=%d", scfg.MaxInflightPerConn), func(t *testing.T) {
			_, addr, stop := startSleeplessServer(t, scfg)
			defer stop()
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			_, commit, err := cl.ExecWriteTracked(nil, func(tx cluster.WriteTxn) (any, error) {
				return nil, tx.Insert("c", storage.D{"_id": "k", "v": int64(1)})
			})
			if err != nil {
				t.Fatal(err)
			}

			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var burst bytes.Buffer
			plain := func(id uint64) *Request {
				return &Request{ID: id, Op: OpFindByID, Node: 0, Collection: "c", DocID: "k"}
			}
			WriteFrame(&burst, plain(1))
			WriteFrame(&burst, &Request{
				ID: 2, Op: OpFindByID, Node: 1, Collection: "c", DocID: "k",
				AfterSecs: commit.Secs, AfterInc: commit.Inc + 1,
			})
			if capped {
				WriteFrame(&burst, plain(3))
			}
			if _, err := conn.Write(burst.Bytes()); err != nil {
				t.Fatal(err)
			}

			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			var first Response
			if err := ReadFrame(conn, &first); err != nil {
				t.Fatalf("no response while request 2 blocks (a held response waited across a blocking point): %v", err)
			}
			if first.ID != 1 || first.Err != "" || !first.Found {
				t.Fatalf("first response = id %d found %t err %q, want the plain read (1)", first.ID, first.Found, first.Err)
			}

			// Unblock request 2 by committing the entry it waits for.
			if _, _, err := cl.ExecWriteTracked(nil, func(tx cluster.WriteTxn) (any, error) {
				return nil, tx.Set("c", "k", storage.D{"v": int64(2)})
			}); err != nil {
				t.Fatal(err)
			}
			// The third read runs only once the second frees the
			// budget; the two responses may then race each other.
			want := map[uint64]bool{2: true}
			if capped {
				want[3] = true
			}
			for len(want) > 0 {
				var resp Response
				if err := ReadFrame(conn, &resp); err != nil {
					t.Fatal(err)
				}
				if !want[resp.ID] || resp.Err != "" || !resp.Found {
					t.Fatalf("response = id %d found %t err %q, want one of %v", resp.ID, resp.Found, resp.Err, want)
				}
				delete(want, resp.ID)
			}
			// The dispatch-path and flush counters travel in the metrics op.
			snap, err := cl.FetchMetrics()
			if err != nil {
				t.Fatal(err)
			}
			if n := snap.CounterValue("wire.flushes"); n < 1 {
				t.Errorf("wire.flushes = %d, want the writes counted", n)
			}
			if n := snap.CounterValue(obs.Name("wire.dispatch", "path", "inline")); n < 1 {
				t.Errorf("wire.dispatch{path=inline} = %d, want the plain reads counted", n)
			}
			if n := snap.CounterValue(obs.Name("wire.dispatch", "path", "spawned")); n < 1 {
				t.Errorf("wire.dispatch{path=spawned} = %d, want the afterClusterTime read counted", n)
			}
		})
	}
}
