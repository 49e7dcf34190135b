// Package wire exposes a replica set over TCP and provides a network
// client that implements the same driver.Conn interface as the
// in-process cluster — so Decongestant's Read Balancer and Router run
// unchanged against a remote deployment. Reads issue one round trip
// per operation; write transactions buffer mutations client-side and
// commit them with a single batch request, like a real driver's
// transaction API.
//
// Every frame is a 4-byte length prefix and a binary body whose
// documents are BSON-lite (binary.go). A connection opens with a hello
// that identifies the protocol (see frame.go); a server closes any
// peer that opens with anything else.
package wire

import (
	"errors"

	"decongestant/internal/obs"
	"decongestant/internal/obs/trace"
	"decongestant/internal/storage"
)

// Op names of the protocol.
const (
	OpTopology   = "topology"
	OpPing       = "ping"
	OpStatus     = "status"
	OpFindByID   = "find_by_id"
	OpFindMany   = "find_many"
	OpFind       = "find"
	OpCount      = "count"
	OpWriteBatch = "write_batch"
	// OpMetrics returns the server's observability snapshot — the
	// cluster's registry merged with any snapshots clients have pushed —
	// serverStatus-style polling for telemetry.
	OpMetrics = "metrics"
	// OpMetricsPush uploads a client-side registry snapshot (driver and
	// balancer instruments live at the client) so OpMetrics exposes the
	// whole deployment from one endpoint. Pushes are keyed by Source;
	// repeat pushes replace the previous snapshot.
	OpMetricsPush = "metrics_push"
	// OpTrace exports retained spans: with DocID set to a hex trace id
	// it returns that trace's span tree, otherwise the most recent
	// spans (up to Limit).
	OpTrace = "trace"
	// OpCurrentOp returns the server's in-flight operations, MongoDB's
	// currentOp (empty unless the server was configured to track them).
	OpCurrentOp = "current_op"
	// OpTracePush uploads client-side recorded spans (driver, router,
	// balancer-decision hops) into the server's recorder, so one OpTrace
	// query returns the whole causal tree.
	OpTracePush = "trace_push"
	// OpListShards asks a mongos for its shard roster (id + address), so
	// clients discover the deployment instead of linking shard addresses.
	OpListShards = "list_shards"
	// OpChunkMap asks a mongos for its versioned chunk routing table.
	OpChunkMap = "chunk_map"
	// OpOplogTail scans the primary's oplog after the request's
	// AfterSecs/AfterInc OpTime, up to Limit entries — the change feed
	// chunk migration drains a source shard through.
	OpOplogTail = "oplog_tail"
	// OpMoveChunk (mongos only) live-migrates the chunk owning DocID to
	// shard Node, draining writes via the source's oplog tail.
	OpMoveChunk = "move_chunk"
)

// MaxFrame bounds a single protocol frame (16 MiB).
const MaxFrame = 16 << 20

// Error codes carried in Response.Code. Zero means "no code" (legacy
// errors travel as bare strings); non-zero codes classify the failure
// so clients can tell retryable congestion pushback from hard errors.
const (
	// CodeOverloaded is load shedding: the server hit its saturation
	// threshold and rejected the request without executing it. The
	// request did not run — retrying after a backoff is always safe.
	CodeOverloaded = 1001
	// CodeNotLeased is a lease rejection: the target member could not
	// serve a linearizable read locally (no lease, lease expired, or
	// commit point not yet applied). The read did not execute — the
	// driver retries it at the primary. The reason rides in the error
	// message (see cluster.LeaseReject).
	CodeNotLeased = 1002
)

// Error is a typed protocol error: the server's message plus its
// error code. The client returns *Error for every server-reported
// failure, so callers can route on the code (see IsRetryable).
type Error struct {
	Code int
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

// IsRetryable reports whether err is a server pushback that is safe to
// retry after a backoff — the request was shed before execution, so no
// state changed. Plain network errors are not classified here: the
// caller cannot know whether a write executed.
func IsRetryable(err error) bool {
	var we *Error
	if !errors.As(err, &we) {
		return false
	}
	return we.Code == CodeOverloaded || we.Code == CodeNotLeased
}

// Read concern values carried in Request.ReadConcern. Zero (the
// default, "local") costs zero wire bytes.
const (
	// RCLocal is the default read concern: serve from the target node's
	// latest applied snapshot.
	RCLocal = 0
	// RCLinearizable asks the target to serve under the lease protocol:
	// the primary under its leader lease (or a majority-confirm round),
	// a secondary from a valid read lease — rejecting with CodeNotLeased
	// when it cannot.
	RCLinearizable = 1
)

// Mutation is the wire form of one buffered write. Doc must be in
// canonical form (storage.Document.Normalized): the codec encodes it as
// is.
type Mutation struct {
	Kind       string // insert | set | delete
	Collection string
	DocID      string
	Doc        storage.Document
}

// Request is one client->server frame.
type Request struct {
	ID         uint64
	Op         string
	Node       int
	Collection string
	DocID      string
	IDs        []string
	// Filter travels as BSON-lite values, decoded once server-side
	// without re-normalization.
	Filter storage.Filter
	Limit  int
	Muts   []Mutation
	// AfterSecs/AfterInc carry a causal prerequisite (afterClusterTime):
	// read ops wait until the target node has applied this OpTime.
	AfterSecs int64
	AfterInc  uint32
	// Source names the pusher for metrics_push; Snapshot is its payload.
	Source   string
	Snapshot *obs.Snapshot
	// Trace is the operation's trace context, present only when the
	// originating client sampled it — nil costs zero wire bytes,
	// keeping the untraced hot path untouched.
	Trace *trace.Context
	// BoundSecs declares the freshness bound, in seconds, the client's
	// session promised for this read; the serving side's freshness
	// auditor checks the observed staleness against it (0 = none).
	BoundSecs int64
	// ReadConcern selects the read's consistency level (see the RC
	// constants). Zero — the local default — is absent on the wire.
	ReadConcern int
	// WantFresh asks the server to report the staleness it observed
	// serving this read (Response.StaleSecs) — the freshness-priced
	// cache's fill stamp. False costs zero wire bytes.
	WantFresh bool
	// Spans is the trace_push payload.
	Spans []trace.Span
}

// Member is the wire form of a serverStatus member row.
type Member struct {
	ID      int
	Primary bool
	Secs    int64
	Inc     uint32
	// Leased reports whether the member currently holds a valid lease
	// (leader lease for the primary, read lease for a secondary) and can
	// serve linearizable reads locally.
	Leased bool
}

// StatusBody is the wire form of a serverStatus response.
type StatusBody struct {
	From    int
	Primary int
	Members []Member
	// LeaseEpoch is the replica set's current lease epoch (0 when the
	// lease subsystem is disabled).
	LeaseEpoch uint64
}

// Topology describes the replica set to clients.
type Topology struct {
	Primary int
	Zones   []string // indexed by node id
}

// ShardInfo is one row of a mongos's list_shards answer.
type ShardInfo struct {
	ID   int
	Addr string // empty for in-process shards
}

// ChunkInfo is the wire form of one chunk: the half-open shard-key
// range [Min, Max) owned by a shard. Empty Min means -inf; empty Max
// means +inf.
type ChunkInfo struct {
	Min   string
	Max   string
	Shard int
}

// ChunkMapBody is a mongos's versioned chunk routing table.
type ChunkMapBody struct {
	Version uint64
	Chunks  []ChunkInfo
}

// EntryBody is the wire form of one decoded oplog entry.
type EntryBody struct {
	Secs       int64
	Inc        uint32
	Kind       string // insert | set | delete | noop
	Collection string
	DocID      string
	Doc        storage.Document
}

// Response is one server->client frame.
type Response struct {
	ID  uint64
	Err string
	// Code classifies Err when non-zero (see the Code constants); the
	// client surfaces both through *Error.
	Code   int
	Found  bool
	Count  int
	Topo   *Topology
	Status *StatusBody
	// OpSecs/OpInc report the serving node's lastApplied OpTime for
	// read ops and the commit OpTime for write batches, feeding the
	// client session's causal token.
	OpSecs int64
	OpInc  uint32
	// Metrics is the observability snapshot for the metrics op.
	Metrics *obs.Snapshot
	// Spans answers the trace op; Ops answers current_op.
	Spans []trace.Span
	Ops   []trace.OpInfo
	// Shards answers list_shards; Chunks answers chunk_map.
	Shards []ShardInfo
	Chunks *ChunkMapBody
	// Entries answers oplog_tail; OpSecs/OpInc carry the primary's
	// lastApplied and TruncSecs/TruncInc the log's truncation horizon,
	// so tailers detect both "caught up" and "fell off the log".
	Entries   []EntryBody
	TruncSecs int64
	TruncInc  uint32
	// StaleSecs reports the staleness the serving node observed at
	// serve time (whole seconds; 0 when the primary served). Only
	// filled when the request set WantFresh — unrequested, it costs
	// zero wire bytes.
	StaleSecs int64

	// Document results: the server fills rawDoc/rawDocs with stored
	// BSON-lite encodings (or doc/docs when it must materialize), and
	// the client's decoder fills doc/docs.
	doc     storage.Document
	docs    []storage.Document
	rawDoc  []byte
	rawDocs [][]byte
}

// SetDoc fills the single-document result from an out-of-package
// Backend; a nil document leaves the response not found.
func (r *Response) SetDoc(d storage.Document) {
	if d == nil {
		return
	}
	r.Found = true
	r.doc = d
}

// SetDocs fills a multi-document result from an out-of-package
// Backend.
func (r *Response) SetDocs(ds []storage.Document) { r.docs = ds }
