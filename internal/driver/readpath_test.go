package driver

// Tests of the one read path: each request shape makes exactly one
// conn call of the expected method, each preference takes its own
// fallback, a session read originates one trace, and a Linearizable
// preference is linearizable on every entry point.

import (
	"errors"
	"testing"
	"time"

	"decongestant/internal/cache"
	"decongestant/internal/cluster"
	"decongestant/internal/obs"
	"decongestant/internal/obs/trace"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

type connMethod int

const (
	mExecRead connMethod = iota
	mExecReadAfter
	mExecReadMeta
	mExecReadFreshMeta
	mExecReadLinearizableMeta
	nConnMethods
)

var connMethodNames = [nConnMethods]string{
	"ExecRead", "ExecReadAfter", "ExecReadMeta", "ExecReadFreshMeta", "ExecReadLinearizableMeta",
}

// countingConn is a three-member fake connection with every read
// capability. It counts each read method's calls and records the
// members they went to. A read at a member in down fails with
// ErrNodeDown; a linearizable read at a member in unleased is rejected
// with a *cluster.LeaseError. With failover set, every failed
// linearizable read moves the primary to the next member.
type countingConn struct {
	primary  int
	down     map[int]bool
	unleased map[int]bool
	failover bool

	calls [nConnMethods]int
	nodes []int
}

var _ interface {
	CausalConn
	TracedConn
	LinearizableConn
	FreshConn
} = (*countingConn)(nil)

func (c *countingConn) NodeIDs() []int                   { return []int{0, 1, 2} }
func (c *countingConn) PrimaryID() int                   { return c.primary }
func (c *countingConn) Zone(int) string                  { return "" }
func (c *countingConn) Ping(sim.Proc, int) time.Duration { return time.Millisecond }
func (c *countingConn) ServerStatus(_ sim.Proc, id int) cluster.Status {
	return cluster.Status{From: id}
}

func (c *countingConn) ExecWrite(sim.Proc, func(tx cluster.WriteTxn) (any, error)) (any, error) {
	return nil, nil
}

func (c *countingConn) ExecWriteTracked(sim.Proc, func(tx cluster.WriteTxn) (any, error)) (any, oplog.OpTime, error) {
	return nil, oplog.Zero, nil
}

func (c *countingConn) serve(m connMethod, node int, fn func(v cluster.ReadView) (any, error)) (any, error) {
	c.calls[m]++
	c.nodes = append(c.nodes, node)
	if c.down[node] {
		return nil, cluster.ErrNodeDown
	}
	return fn(emptyView{})
}

func (c *countingConn) ExecRead(_ sim.Proc, node int, fn func(v cluster.ReadView) (any, error)) (any, error) {
	return c.serve(mExecRead, node, fn)
}

func (c *countingConn) ExecReadAfter(_ sim.Proc, node int, after oplog.OpTime, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, error) {
	res, err := c.serve(mExecReadAfter, node, fn)
	return res, after, err
}

func (c *countingConn) ExecReadMeta(_ sim.Proc, node int, after oplog.OpTime, _ cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, error) {
	res, err := c.serve(mExecReadMeta, node, fn)
	return res, after, err
}

func (c *countingConn) ExecReadFreshMeta(_ sim.Proc, node int, after oplog.OpTime, _ cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, int64, error) {
	res, err := c.serve(mExecReadFreshMeta, node, fn)
	return res, after, 0, err
}

func (c *countingConn) ExecReadLinearizableMeta(_ sim.Proc, node int, after oplog.OpTime, _ cluster.ReadMeta, fn func(v cluster.ReadView) (any, error)) (any, oplog.OpTime, error) {
	res, err := c.serve(mExecReadLinearizableMeta, node, fn)
	if err == nil && c.unleased[node] {
		res, err = nil, &cluster.LeaseError{Node: node, Reason: cluster.LeaseReasonNoLease}
	}
	if err != nil && c.failover {
		c.primary = (c.primary + 1) % 3
	}
	return res, after, err
}

// emptyView is a read view of an empty member.
type emptyView struct{}

func (emptyView) FindByID(string, string) (storage.Document, bool)    { return nil, false }
func (emptyView) FindManyByID(string, []string) []storage.Document    { return nil }
func (emptyView) Find(string, storage.Filter, int) []storage.Document { return nil }
func (emptyView) Count(string, storage.Filter) int                    { return 0 }
func (emptyView) AddUnits(int)                                        {}

// pointBody is a read body with one point lookup.
func pointBody(v cluster.ReadView) (any, error) {
	v.FindByID("kv", "k")
	return nil, nil
}

// readWith adapts Client.ReadWith to the table's read signature.
func readWith(req ReadRequest) func(*Client, sim.Proc) (ReadResult, error) {
	return func(c *Client, p sim.Proc) (ReadResult, error) { return c.ReadWith(p, req, pointBody) }
}

// clientRead adapts Client.Read to the table's read signature.
func clientRead(opts ReadOptions) func(*Client, sim.Proc) (ReadResult, error) {
	return func(c *Client, p sim.Proc) (ReadResult, error) {
		v, node, lat, err := c.Read(p, opts, pointBody)
		return ReadResult{Value: v, Node: node, Latency: lat}, err
	}
}

// sessionRead adapts Session.Read to the table's read signature.
func sessionRead(opts ReadOptions) func(*Client, sim.Proc) (ReadResult, error) {
	return func(c *Client, p sim.Proc) (ReadResult, error) {
		v, node, lat, err := c.NewSession().Read(p, opts, pointBody)
		return ReadResult{Value: v, Node: node, Latency: lat}, err
	}
}

// runRead runs one read over conn in a fresh virtual environment.
// prepare, when non-nil, adjusts the client first.
func runRead(t *testing.T, conn *countingConn, prepare func(env sim.Env, c *Client), read func(*Client, sim.Proc) (ReadResult, error)) (*Client, ReadResult, error) {
	t.Helper()
	env := sim.NewEnv(1)
	defer env.Shutdown()
	c := NewClient(env, conn)
	if prepare != nil {
		prepare(env, c)
	}
	var res ReadResult
	var err error
	ran := false
	env.Spawn("client", func(p sim.Proc) {
		res, err = read(c, p)
		ran = true
	})
	env.Run(time.Second)
	if !ran {
		t.Fatal("read did not finish")
	}
	return c, res, err
}

// TestEachRequestShapeCallsOneConnMethod: every request shape reaches
// the connection through exactly one call, of the method its shape
// names (see Client.exec).
func TestEachRequestShapeCallsOneConnMethod(t *testing.T) {
	withCache := func(env sim.Env, c *Client) {
		if c.EnableCache(env, cache.Config{}) == nil {
			t.Fatal("cache not enabled over a FreshConn")
		}
	}
	for _, tc := range []struct {
		name    string
		prepare func(sim.Env, *Client)
		read    func(*Client, sim.Proc) (ReadResult, error)
		want    connMethod
	}{
		{"plain", nil, clientRead(ReadOptions{Pref: Secondary}), mExecRead},
		{"plain with a cache but no bound", withCache, clientRead(ReadOptions{Pref: Primary}), mExecRead},
		{"causal token", nil, readWith(ReadRequest{After: oplog.OpTime{Secs: 1}}), mExecReadAfter},
		{"session", nil, sessionRead(ReadOptions{Pref: Secondary}), mExecReadAfter},
		{"trace", nil, readWith(ReadRequest{Trace: trace.Context{TraceID: 7}}), mExecReadMeta},
		{"bound", nil, clientRead(ReadOptions{Pref: Secondary, AuditBoundSecs: 5}), mExecReadMeta},
		{"session with bound", nil, sessionRead(ReadOptions{AuditBoundSecs: 5}), mExecReadMeta},
		{"cache fill", withCache, clientRead(ReadOptions{Pref: Secondary, AuditBoundSecs: 5}), mExecReadFreshMeta},
		{"fresh stamp", nil, readWith(ReadRequest{Fresh: true}), mExecReadFreshMeta},
		{"fresh stamp bypasses the cache", withCache, readWith(ReadRequest{ReadOptions: ReadOptions{AuditBoundSecs: 5}, Fresh: true}), mExecReadFreshMeta},
		{"linearizable", nil, clientRead(ReadOptions{Pref: Linearizable}), mExecReadLinearizableMeta},
		{"linearizable with a cache and bound", withCache, clientRead(ReadOptions{Pref: Linearizable, AuditBoundSecs: 5}), mExecReadLinearizableMeta},
		{"session linearizable", nil, sessionRead(ReadOptions{Pref: Linearizable}), mExecReadLinearizableMeta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := &countingConn{}
			_, _, err := runRead(t, conn, tc.prepare, tc.read)
			if err != nil {
				t.Fatal(err)
			}
			for m, n := range conn.calls {
				want := 0
				if connMethod(m) == tc.want {
					want = 1
				}
				if n != want {
					t.Errorf("%s called %d times, want %d", connMethodNames[m], n, want)
				}
			}
		})
	}
}

// TestFallbackPolicyPerPreference: on ErrNodeDown or a lease
// rejection, PrimaryPreferred retries once at a secondary,
// SecondaryPreferred once at the primary, and Linearizable at the
// primary at most twice with the rejection named in the reason; a
// session read takes no *Preferred fallback.
func TestFallbackPolicyPerPreference(t *testing.T) {
	// Lease holders 1 and 2 in the monitor's view, and the primary
	// outside their latency window, so selection picks a secondary.
	leasedView := func(_ sim.Env, c *Client) {
		c.lastStat = &cluster.Status{LeaseEpoch: 1, Members: []cluster.MemberStatus{
			{ID: 0, Primary: true}, {ID: 1, Leased: true}, {ID: 2, Leased: true},
		}}
		c.rtt = map[int]time.Duration{0: time.Second, 1: time.Millisecond, 2: time.Millisecond}
	}
	for _, tc := range []struct {
		name     string
		conn     *countingConn
		prepare  func(sim.Env, *Client)
		read     func(*Client, sim.Proc) (ReadResult, error)
		method   connMethod
		calls    int
		wantErr  error
		node     func(int) bool
		reason   string
		fallback uint64
	}{
		{
			name: "PrimaryPreferred goes to a secondary", conn: &countingConn{down: map[int]bool{0: true}},
			read: clientRead(ReadOptions{Pref: PrimaryPreferred}), method: mExecRead, calls: 2,
			node: func(n int) bool { return n != 0 }, fallback: 1,
		},
		{
			name: "SecondaryPreferred goes to the primary", conn: &countingConn{down: map[int]bool{1: true, 2: true}},
			read: clientRead(ReadOptions{Pref: SecondaryPreferred}), method: mExecRead, calls: 2,
			node: func(n int) bool { return n == 0 }, fallback: 1,
		},
		{
			name: "Linearizable goes to the primary with the reason", conn: &countingConn{unleased: map[int]bool{1: true, 2: true}},
			prepare: leasedView, read: readWith(ReadRequest{ReadOptions: ReadOptions{Pref: Linearizable}}), method: mExecReadLinearizableMeta, calls: 2,
			node: func(n int) bool { return n == 0 }, reason: cluster.LeaseReasonNoLease + "→primary", fallback: 1,
		},
		{
			name: "Linearizable retries at most twice", conn: &countingConn{down: map[int]bool{0: true, 1: true, 2: true}, failover: true},
			read: readWith(ReadRequest{ReadOptions: ReadOptions{Pref: Linearizable}}), method: mExecReadLinearizableMeta, calls: 3,
			wantErr: cluster.ErrNodeDown, reason: "node-down→primary", fallback: 2,
		},
		{
			name: "session PrimaryPreferred takes no fallback", conn: &countingConn{down: map[int]bool{0: true}},
			read: sessionRead(ReadOptions{Pref: PrimaryPreferred}), method: mExecReadAfter, calls: 1,
			wantErr: cluster.ErrNodeDown,
		},
		{
			name: "session SecondaryPreferred takes no fallback", conn: &countingConn{down: map[int]bool{1: true, 2: true}},
			read: sessionRead(ReadOptions{Pref: SecondaryPreferred}), method: mExecReadAfter, calls: 1,
			wantErr: cluster.ErrNodeDown,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, res, err := runRead(t, tc.conn, tc.prepare, tc.read)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			for m, n := range tc.conn.calls {
				want := 0
				if connMethod(m) == tc.method {
					want = tc.calls
				}
				if n != want {
					t.Errorf("%s called %d times, want %d (members %v)", connMethodNames[m], n, want, tc.conn.nodes)
				}
			}
			if tc.node != nil && !tc.node(res.Node) {
				t.Errorf("served by member %d (members tried %v)", res.Node, tc.conn.nodes)
			}
			if res.Reason != tc.reason {
				t.Errorf("reason %q, want %q", res.Reason, tc.reason)
			}
			if got := c.Metrics().Snapshot().CounterValue("driver.fallback_retries"); got != tc.fallback {
				t.Errorf("driver.fallback_retries = %d, want %d", got, tc.fallback)
			}
		})
	}
}

// TestSessionReadStartsOneTrace: with sampling on and no cache, every
// session read originates exactly one trace.
func TestSessionReadStartsOneTrace(t *testing.T) {
	env, rs, c := testSetup(31)
	defer env.Shutdown()
	rs.Tracer().SetSampling(1)
	sess := c.NewSession()
	const reads = 5
	started := func() int64 { return c.Metrics().Snapshot().GaugeValue("trace.traces_started") }
	before := started()
	env.Spawn("client", func(p sim.Proc) {
		for i := 0; i < reads; i++ {
			if _, _, _, err := sess.Read(p, ReadOptions{Pref: Primary}, pointBody); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.Run(time.Second)
	if got := started() - before; got != reads {
		t.Fatalf("%d session reads started %d traces, want %d", reads, got, reads)
	}
}

// TestLinearizablePrefIsLinearizable: a Pref Linearizable read on
// Client.Read or Session.Read, routed by a monitor view whose lease
// holders have since lost their leases, never returns a secondary's
// unchecked state: the secondary rejects and the read falls back to
// the primary, counted under the rejection's reason. The cluster runs
// with leases off and the monitor view is forged, so every secondary
// attempt rejects with no-lease.
func TestLinearizablePrefIsLinearizable(t *testing.T) {
	env, rs, c := testSetup(32)
	defer env.Shutdown()
	st := &cluster.Status{LeaseEpoch: 1}
	for _, id := range rs.NodeIDs() {
		st.Members = append(st.Members, cluster.MemberStatus{
			ID: id, Primary: id == rs.PrimaryID(), Leased: id != rs.PrimaryID(),
		})
	}
	c.mu.Lock()
	c.lastStat = st
	c.mu.Unlock()
	sess := c.NewSession()
	reads := map[string]func(p sim.Proc) (any, int, time.Duration, error){
		"Client.Read": func(p sim.Proc) (any, int, time.Duration, error) {
			return c.Read(p, ReadOptions{Pref: Linearizable}, pointBody)
		},
		"Session.Read": func(p sim.Proc) (any, int, time.Duration, error) {
			return sess.Read(p, ReadOptions{Pref: Linearizable}, pointBody)
		},
	}
	env.Spawn("client", func(p sim.Proc) {
		c.RefreshRTTs(p)
		for name, read := range reads {
			for i := 0; i < 20; i++ {
				_, node, _, err := read(p)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if node != rs.PrimaryID() {
					t.Errorf("%s: linearizable read served by unleased member %d", name, node)
					return
				}
			}
		}
	})
	env.Run(30 * time.Second)
	snap := c.Metrics().Snapshot()
	if got := snap.CounterValue(obs.Name("driver.lease_fallbacks", "reason", cluster.LeaseReasonNoLease)); got == 0 {
		t.Fatal("no read fell back with reason no-lease")
	}
}

// TestPrimaryReadAllocs: a Primary read over a connection whose reads
// allocate nothing allocates nothing in the driver either — server
// selection returns the primary without listing the members.
func TestPrimaryReadAllocs(t *testing.T) {
	env := sim.NewRealtimeEnv(1)
	defer env.Shutdown()
	conn := &countingConn{nodes: make([]int, 0, 2048)} // holds every call AllocsPerRun makes
	c := NewClient(env, conn)
	p := env.Adhoc("reader")
	for _, pref := range []ReadPref{Primary, PrimaryPreferred} {
		allocs := testing.AllocsPerRun(1000, func() {
			if _, _, _, err := c.Read(p, ReadOptions{Pref: pref}, pointBody); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v read: %.0f allocs, want 0", pref, allocs)
		}
		conn.nodes = conn.nodes[:0]
	}
}
