package wire

// Framing tests for the PR 9 read-concern surface: the linearizable
// read-concern tag on request frames (zero bytes when unset), lease
// state in replstatus answers, and corrupt
// member-flag rejection.

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/obs"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// TestReadConcernRoundTripBothCodecs: the read-concern tag and the
// lease fields of a status answer survive the codec.
func TestReadConcernRoundTripBothCodecs(t *testing.T) {
	req := Request{ID: 7, Op: OpFindByID, Node: 2, Collection: "kv", DocID: "a",
		ReadConcern: RCLinearizable}

	body, err := encodeRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := decodeRequest(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.ReadConcern != RCLinearizable {
		t.Fatalf("v2 read concern = %d, want %d", out.ReadConcern, RCLinearizable)
	}

	resp := Response{ID: 8, Status: &StatusBody{
		From: 1, Primary: 0, LeaseEpoch: 5,
		Members: []Member{
			{ID: 0, Primary: true, Leased: true, Secs: 9, Inc: 2},
			{ID: 1, Leased: true, Secs: 9, Inc: 1},
			{ID: 2, Secs: 8, Inc: 7},
		},
	}}
	rbody, err := encodeResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	var rout Response
	if err := decodeResponse(rbody, &rout); err != nil {
		t.Fatal(err)
	}
	st := rout.Status
	if st == nil || st.LeaseEpoch != 5 {
		t.Fatalf("v2 status lease epoch: %+v", st)
	}
	if !st.Members[0].Primary || !st.Members[0].Leased ||
		st.Members[1].Primary || !st.Members[1].Leased ||
		st.Members[2].Primary || st.Members[2].Leased {
		t.Fatalf("v2 member lease flags: %+v", st.Members)
	}
}

// TestReadConcernUnsetCostsZeroBytes: a local-read-concern request
// must encode identically to one predating the field — the tag rides
// the frame only when set (two trailing bytes).
func TestReadConcernUnsetCostsZeroBytes(t *testing.T) {
	base := Request{ID: 3, Op: OpFind, Node: 1, Collection: "kv", Limit: 10}
	plain, err := encodeRequest(nil, &base)
	if err != nil {
		t.Fatal(err)
	}
	lin := base
	lin.ReadConcern = RCLinearizable
	tagged, err := encodeRequest(nil, &lin)
	if err != nil {
		t.Fatal(err)
	}
	if len(tagged) != len(plain)+2 {
		t.Fatalf("read-concern tag costs %d bytes, want 2", len(tagged)-len(plain))
	}
	if !bytes.Equal(plain, tagged[:len(plain)]) {
		t.Fatal("unset read concern changed unrelated frame bytes")
	}
	if tagged[len(plain)] != rqReadConcern {
		t.Fatalf("trailing tag = %d, want %d", tagged[len(plain)], rqReadConcern)
	}
}

// TestStatusMemberFlagsRejectCorruptFrame: a member flag byte with
// unknown bits is a corrupt frame, not a silent lease grant.
func TestStatusMemberFlagsRejectCorruptFrame(t *testing.T) {
	// rsStatus tag, From=1 (zigzag), Primary=0, LeaseEpoch=1, one
	// member: id=0, flags=4 (invalid), secs=0, inc=0.
	corrupt := []byte{rsStatus, 0x02, 0x00, 0x01, 0x01, 0x00, 0x04, 0x00, 0x00}
	var out Response
	err := decodeResponse(corrupt, &out)
	if err == nil || !strings.Contains(err.Error(), "member flags 4") {
		t.Fatalf("corrupt flags decoded: %v", err)
	}

	// The same frame with valid flags decodes; truncating it does not.
	valid := []byte{rsStatus, 0x02, 0x00, 0x01, 0x01, 0x00, 0x03, 0x00, 0x00}
	if err := decodeResponse(valid, &out); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if out.Status.LeaseEpoch != 1 || !out.Status.Members[0].Primary || !out.Status.Members[0].Leased {
		t.Fatalf("valid frame mis-decoded: %+v", out.Status)
	}
	for cut := 1; cut < len(valid); cut++ {
		var tr Response
		if err := decodeResponse(valid[:cut], &tr); err == nil && tr.Status != nil &&
			len(tr.Status.Members) == 1 {
			t.Fatalf("truncated frame (%d bytes) decoded a full member", cut)
		}
	}
}

// TestLinearizableOverWire: end to end through the v2 transport — a
// linearizable read against a leased secondary serves locally, the
// status answer exposes lease state, and a rejection surfaces as the
// retryable CodeNotLeased with the reason intact after the error
// crossed the wire as text.
func TestLinearizableOverWire(t *testing.T) {
	env := sim.NewRealtimeEnv(31)
	cfg := cluster.DefaultConfig()
	cfg.ReadCost = 50 * time.Microsecond
	cfg.WriteCost = 100 * time.Microsecond
	cfg.ApplyCost = 20 * time.Microsecond
	cfg.StatusCost = 20 * time.Microsecond
	cfg.RTTSameZone = 100 * time.Microsecond
	cfg.RTTCrossZoneBase = 200 * time.Microsecond
	cfg.ReplIdlePoll = 2 * time.Millisecond
	cfg.HeartbeatInterval = 20 * time.Millisecond
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	cfg.LinearizableLeases = true
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
	p := env.Adhoc("test")

	if _, err := cl.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
		return nil, tx.Insert("kv", storage.D{"_id": "w", "v": int64(11)})
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond) // heartbeats grant; replication applies

	st := cl.ServerStatus(p, rs.PrimaryID())
	if st.LeaseEpoch != 1 {
		t.Fatalf("wire status lease epoch = %d, want 1", st.LeaseEpoch)
	}
	leased := 0
	for _, m := range st.Members {
		if m.Leased {
			leased++
		}
	}
	if leased != len(st.Members) {
		t.Fatalf("wire status shows %d/%d leased members", leased, len(st.Members))
	}

	sec := rs.SecondaryIDs()[0]
	res, _, err := cl.ExecReadLinearizableMeta(p, sec, oplog.Zero, cluster.ReadMeta{},
		func(v cluster.ReadView) (any, error) {
			d, ok := v.FindByID("kv", "w")
			if !ok {
				return int64(-1), nil
			}
			return d.Int("v"), nil
		})
	if err != nil {
		t.Fatalf("linearizable read over wire: %v", err)
	}
	if res.(int64) != 11 {
		t.Fatalf("read %d, want 11", res.(int64))
	}
	if got := rs.Metrics().Snapshot().CounterValue(obs.Name("lease.local_strong_reads", "role", "secondary")); got == 0 {
		t.Fatal("wire linearizable read was not lease-served on the secondary")
	}

	// Invalidate the lease (clock jump past the window, renewals
	// frozen) and read again: the rejection must carry CodeNotLeased
	// and a reason LeaseReject can still parse from the flat message.
	rs.SetDown(rs.PrimaryID(), true)
	time.Sleep(30 * time.Millisecond) // let in-flight grants land; no new ones
	rs.SetClockSkew(sec, time.Hour)
	_, _, err = cl.ExecReadLinearizableMeta(p, sec, oplog.Zero, cluster.ReadMeta{},
		func(v cluster.ReadView) (any, error) {
			_, ok := v.FindByID("kv", "w")
			return ok, nil
		})
	if err == nil {
		t.Fatal("expired lease served a linearizable read over the wire")
	}
	var we *Error
	if !errors.As(err, &we) || we.Code != CodeNotLeased {
		t.Fatalf("wire error %v, want CodeNotLeased", err)
	}
	if !IsRetryable(err) {
		t.Fatal("CodeNotLeased not retryable")
	}
	if reason, ok := cluster.LeaseReject(err); !ok || reason != cluster.LeaseReasonExpired {
		t.Fatalf("LeaseReject over wire = %q,%v; want lease-expired", reason, ok)
	}
}
