// Package wire exposes a replica set over TCP and provides a network
// client that implements the same driver.Conn interface as the
// in-process cluster — so Decongestant's Read Balancer and Router run
// unchanged against a remote deployment. Reads issue one round trip
// per operation; write transactions buffer mutations client-side and
// commit them with a single batch request, like a real driver's
// transaction API.
//
// Two codecs share one frame format (4-byte length prefix + body):
// protocol v1 encodes bodies as JSON, v2 as hand-rolled binary with
// BSON-lite document payloads. The version is negotiated per
// connection by a client hello (see frame.go); servers keep speaking
// v1 to clients that never send one, so old clients and debug tooling
// keep working.
package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

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
	// Empty on hash-sharded deployments (no chunk metadata).
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
// default, "local") costs zero wire bytes on both codecs.
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

// Cond is the wire form of a filter condition. Op2/Value2 carry the
// second bound of a two-sided range condition (storage.Cond.Op2);
// absent for the common one-sided case.
type Cond struct {
	Op     string `json:"op"`
	Value  any    `json:"value,omitempty"`
	Values []any  `json:"values,omitempty"`
	Op2    string `json:"op2,omitempty"`
	Value2 any    `json:"value2,omitempty"`
}

// Mutation is the wire form of one buffered write. Doc is the JSON
// (v1) document form; the client fills only the typed doc field and
// the v1 codec converts at marshal time, so the binary path never
// builds the JSON map.
type Mutation struct {
	Kind       string         `json:"kind"` // insert | set | delete
	Collection string         `json:"collection"`
	DocID      string         `json:"doc_id,omitempty"`
	Doc        map[string]any `json:"doc,omitempty"`

	doc storage.Document // canonical form; encoded directly by v2
}

// MarshalJSON materializes the JSON document form from the typed one
// when only the latter is set (a v1 connection sending a client-built
// mutation).
func (m Mutation) MarshalJSON() ([]byte, error) {
	type wireMutation Mutation // drop methods to avoid recursion
	cp := wireMutation(m)
	if cp.Doc == nil && m.doc != nil {
		cp.Doc = docToJSON(m.doc)
	}
	return json.Marshal(cp)
}

// document returns the mutation's payload in canonical form,
// whichever codec delivered it.
func (m *Mutation) document() (storage.Document, error) {
	if m.doc != nil {
		return m.doc, nil
	}
	return jsonToDoc(m.Doc)
}

// Document exposes the typed payload to out-of-package Backends.
func (m *Mutation) Document() (storage.Document, error) { return m.document() }

// Request is one client->server frame.
type Request struct {
	ID         uint64          `json:"id"`
	Op         string          `json:"op"`
	Node       int             `json:"node,omitempty"`
	Collection string          `json:"collection,omitempty"`
	DocID      string          `json:"doc_id,omitempty"`
	IDs        []string        `json:"ids,omitempty"`
	Filter     map[string]Cond `json:"filter,omitempty"`
	Limit      int             `json:"limit,omitempty"`
	Muts       []Mutation      `json:"muts,omitempty"`
	// AfterSecs/AfterInc carry a causal prerequisite (afterClusterTime):
	// read ops wait until the target node has applied this OpTime.
	AfterSecs int64  `json:"after_secs,omitempty"`
	AfterInc  uint32 `json:"after_inc,omitempty"`
	// Source names the pusher for metrics_push; Snapshot is its payload.
	Source   string        `json:"source,omitempty"`
	Snapshot *obs.Snapshot `json:"snapshot,omitempty"`
	// Trace is the operation's trace context, present only when the
	// originating client sampled it — nil costs zero wire bytes on both
	// codecs, keeping the untraced hot path untouched.
	Trace *trace.Context `json:"trace,omitempty"`
	// BoundSecs declares the freshness bound, in seconds, the client's
	// session promised for this read; the serving side's freshness
	// auditor checks the observed staleness against it (0 = none).
	BoundSecs int64 `json:"bound_secs,omitempty"`
	// ReadConcern selects the read's consistency level (see the RC
	// constants). Zero — the local default — is absent on the wire.
	ReadConcern int `json:"read_concern,omitempty"`
	// WantFresh asks the server to report the staleness it observed
	// serving this read (Response.StaleSecs) — the freshness-priced
	// cache's fill stamp. False costs zero wire bytes on both codecs.
	WantFresh bool `json:"want_fresh,omitempty"`
	// Spans is the trace_push payload.
	Spans []trace.Span `json:"spans,omitempty"`

	// filter is the typed form of Filter. The client fills only this;
	// the v2 codec encodes it directly (conditions travel as BSON-lite
	// values, decoded once server-side without re-normalization) and
	// the v1 codec converts at marshal time.
	filter storage.Filter
}

// MarshalJSON materializes the JSON filter form from the typed one
// when only the latter is set (a v1 connection sending a client-built
// request).
func (r *Request) MarshalJSON() ([]byte, error) {
	type wireRequest Request // drop methods to avoid recursion
	cp := wireRequest(*r)
	if cp.Filter == nil && r.filter != nil {
		cp.Filter = EncodeFilter(r.filter)
	}
	return json.Marshal(&cp)
}

// filterValue returns the request's filter in storage form, whichever
// codec delivered it.
func (r *Request) filterValue() (storage.Filter, error) {
	if r.filter != nil {
		return r.filter, nil
	}
	return DecodeFilter(r.Filter)
}

// FilterValue exposes the typed filter to out-of-package Backends
// (the mongos dispatcher lives in internal/sharding).
func (r *Request) FilterValue() (storage.Filter, error) { return r.filterValue() }

// Member is the wire form of a serverStatus member row.
type Member struct {
	ID      int    `json:"id"`
	Primary bool   `json:"primary"`
	Secs    int64  `json:"secs"`
	Inc     uint32 `json:"inc"`
	// Leased reports whether the member currently holds a valid lease
	// (leader lease for the primary, read lease for a secondary) and can
	// serve linearizable reads locally.
	Leased bool `json:"leased,omitempty"`
}

// StatusBody is the wire form of a serverStatus response.
type StatusBody struct {
	From    int      `json:"from"`
	Primary int      `json:"primary"`
	Members []Member `json:"members"`
	// LeaseEpoch is the replica set's current lease epoch (0 when the
	// lease subsystem is disabled).
	LeaseEpoch uint64 `json:"lease_epoch,omitempty"`
}

// Topology describes the replica set to clients.
type Topology struct {
	Primary int      `json:"primary"`
	Zones   []string `json:"zones"` // indexed by node id
}

// ShardInfo is one row of a mongos's list_shards answer.
type ShardInfo struct {
	ID   int    `json:"id"`
	Addr string `json:"addr,omitempty"` // empty for in-process shards
}

// ChunkInfo is the wire form of one chunk: the half-open shard-key
// range [Min, Max) owned by a shard. Empty Min means -inf; empty Max
// means +inf.
type ChunkInfo struct {
	Min   string `json:"min,omitempty"`
	Max   string `json:"max,omitempty"`
	Shard int    `json:"shard"`
}

// ChunkMapBody is a mongos's versioned chunk routing table.
type ChunkMapBody struct {
	Version uint64      `json:"version"`
	Chunks  []ChunkInfo `json:"chunks"`
}

// EntryBody is the wire form of one decoded oplog entry. Doc is the
// JSON (v1) payload form; servers fill only the typed doc and the v1
// codec converts at marshal time, mirroring Mutation.
type EntryBody struct {
	Secs       int64          `json:"secs"`
	Inc        uint32         `json:"inc"`
	Kind       string         `json:"kind"` // insert | set | delete | noop
	Collection string         `json:"collection,omitempty"`
	DocID      string         `json:"doc_id,omitempty"`
	Doc        map[string]any `json:"doc,omitempty"`

	doc storage.Document // canonical payload; encoded directly by v2
}

// MarshalJSON materializes the JSON document form from the typed one,
// like Mutation.MarshalJSON.
func (e EntryBody) MarshalJSON() ([]byte, error) {
	type wireEntry EntryBody // drop methods to avoid recursion
	cp := wireEntry(e)
	if cp.Doc == nil && e.doc != nil {
		cp.Doc = docToJSON(e.doc)
	}
	return json.Marshal(cp)
}

// document returns the entry payload in canonical form, whichever
// codec delivered it.
func (e *EntryBody) document() (storage.Document, error) {
	if e.doc != nil {
		return e.doc, nil
	}
	return jsonToDoc(e.Doc)
}

// Response is one server->client frame.
type Response struct {
	ID  uint64 `json:"id"`
	Err string `json:"err,omitempty"`
	// Code classifies Err when non-zero (see the Code constants); the
	// client surfaces both through *Error.
	Code   int              `json:"code,omitempty"`
	Found  bool             `json:"found,omitempty"`
	Doc    map[string]any   `json:"doc,omitempty"`
	Docs   []map[string]any `json:"docs,omitempty"`
	Count  int              `json:"count,omitempty"`
	Topo   *Topology        `json:"topo,omitempty"`
	Status *StatusBody      `json:"status,omitempty"`
	// OpSecs/OpInc report the serving node's lastApplied OpTime for
	// read ops and the commit OpTime for write batches, feeding the
	// client session's causal token.
	OpSecs int64  `json:"op_secs,omitempty"`
	OpInc  uint32 `json:"op_inc,omitempty"`
	// Metrics is the observability snapshot for the metrics op.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Spans answers the trace op; Ops answers current_op.
	Spans []trace.Span   `json:"spans,omitempty"`
	Ops   []trace.OpInfo `json:"ops,omitempty"`
	// Shards answers list_shards; Chunks answers chunk_map.
	Shards []ShardInfo   `json:"shards,omitempty"`
	Chunks *ChunkMapBody `json:"chunks,omitempty"`
	// Entries answers oplog_tail; OpSecs/OpInc carry the primary's
	// lastApplied and TruncSecs/TruncInc the log's truncation horizon,
	// so tailers detect both "caught up" and "fell off the log".
	Entries   []EntryBody `json:"entries,omitempty"`
	TruncSecs int64       `json:"trunc_secs,omitempty"`
	TruncInc  uint32      `json:"trunc_inc,omitempty"`
	// StaleSecs reports the staleness the serving node observed at
	// serve time (whole seconds; 0 when the primary served). Only
	// filled when the request set WantFresh — unrequested, it costs
	// zero wire bytes on both codecs.
	StaleSecs int64 `json:"stale_secs,omitempty"`

	// Typed document results, used by the v2 codec in both directions:
	// the server fills rawDoc/rawDocs with cached BSON-lite encodings
	// (or doc/docs when it must materialize), and the client's decoder
	// fills doc/docs — no JSON map form ever exists on that path.
	doc     storage.Document
	docs    []storage.Document
	rawDoc  []byte
	rawDocs [][]byte
}

// SetDoc fills the single-document result from an out-of-package
// Backend, routing to the codec-appropriate field.
func (r *Response) SetDoc(binary bool, d storage.Document) {
	if d == nil {
		return
	}
	r.Found = true
	fillDoc(r, binary, d)
}

// SetDocs fills a multi-document result from an out-of-package
// Backend.
func (r *Response) SetDocs(binary bool, ds []storage.Document) {
	fillDocs(r, binary, ds)
}

// document returns the single-document result in canonical form,
// whichever codec delivered it.
func (r *Response) document() (storage.Document, error) {
	if r.doc != nil {
		return r.doc, nil
	}
	return jsonToDoc(r.Doc)
}

// documents returns the multi-document result in canonical form.
func (r *Response) documents() ([]storage.Document, error) {
	if r.docs != nil {
		return r.docs, nil
	}
	if r.Docs == nil {
		return nil, nil
	}
	out := make([]storage.Document, 0, len(r.Docs))
	for _, m := range r.Docs {
		d, err := jsonToDoc(m)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// appendJSONFrame appends one length-prefixed JSON message to dst.
func appendJSONFrame(dst []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("wire: marshal: %w", err)
	}
	if len(body) > MaxFrame {
		return dst, fmt.Errorf("wire: frame of %d bytes exceeds limit", len(body))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...), nil
}

// WriteFrame sends one JSON message with a 4-byte length prefix.
func WriteFrame(w io.Writer, v any) error {
	frame, err := appendJSONFrame(nil, v)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadFrame receives one length-prefixed JSON message into v.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return decodeJSONBody(body, v)
}

// decodeJSONBody unmarshals a v1 frame body. Numbers inside untyped
// document maps decode as json.Number so int64 values above 2^53
// survive the trip (a plain float64 coercion would corrupt them);
// jsonValue converts them back to int64/float64.
func decodeJSONBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("wire: unmarshal: %w", err)
	}
	return nil
}

// EncodeFilter converts a storage.Filter to its wire form.
func EncodeFilter(f storage.Filter) map[string]Cond {
	if f == nil {
		return nil
	}
	out := make(map[string]Cond, len(f))
	for field, c := range f {
		wc := Cond{Op: opName(c.Op), Value: c.Value, Values: c.Values}
		if c.Op2 != 0 {
			wc.Op2, wc.Value2 = opName(c.Op2), c.Value2
		}
		out[field] = wc
	}
	return out
}

// DecodeFilter converts the wire form back to a storage.Filter.
func DecodeFilter(m map[string]Cond) (storage.Filter, error) {
	if m == nil {
		return nil, nil
	}
	out := make(storage.Filter, len(m))
	for field, c := range m {
		op, err := opValue(c.Op)
		if err != nil {
			return nil, err
		}
		val, err := jsonValue(c.Value)
		if err != nil {
			return nil, err
		}
		vals := make([]any, len(c.Values))
		for i, v := range c.Values {
			if vals[i], err = jsonValue(v); err != nil {
				return nil, err
			}
		}
		if len(vals) == 0 {
			vals = nil
		}
		sc := storage.Cond{Op: op, Value: val, Values: vals}
		if c.Op2 != "" {
			if sc.Op2, err = opValue(c.Op2); err != nil {
				return nil, err
			}
			if sc.Value2, err = jsonValue(c.Value2); err != nil {
				return nil, err
			}
		}
		out[field] = sc
	}
	return out, nil
}

func opName(op storage.Op) string {
	switch op {
	case storage.OpEq:
		return "eq"
	case storage.OpNe:
		return "ne"
	case storage.OpGt:
		return "gt"
	case storage.OpGte:
		return "gte"
	case storage.OpLt:
		return "lt"
	case storage.OpLte:
		return "lte"
	case storage.OpIn:
		return "in"
	case storage.OpExists:
		return "exists"
	}
	return "eq"
}

func opValue(name string) (storage.Op, error) {
	switch name {
	case "eq":
		return storage.OpEq, nil
	case "ne":
		return storage.OpNe, nil
	case "gt":
		return storage.OpGt, nil
	case "gte":
		return storage.OpGte, nil
	case "lt":
		return storage.OpLt, nil
	case "lte":
		return storage.OpLte, nil
	case "in":
		return storage.OpIn, nil
	case "exists":
		return storage.OpExists, nil
	}
	return 0, fmt.Errorf("wire: unknown filter op %q", name)
}

// bytesTag marks a []byte value in the JSON (v1) document form:
// {"$bytes": "<base64>"}. encoding/json's default would base64 the
// bytes but decode them back as a plain string, silently changing the
// value's type; the tag makes the round trip lossless. A user document
// whose value is itself a single-key map literally named "$bytes" with
// a string value would be misread — protocol v2 has no such ambiguity
// (bytes are a native BSON-lite type).
const bytesTag = "$bytes"

// docToJSON converts a storage.Document to a JSON-safe map. []byte
// values become tagged base64 objects; nested documents convert
// recursively.
func docToJSON(d storage.Document) map[string]any {
	if d == nil {
		return nil
	}
	out := make(map[string]any, len(d))
	for k, v := range d {
		out[k] = valueToJSON(v)
	}
	return out
}

func valueToJSON(v any) any {
	switch x := v.(type) {
	case storage.Document:
		return docToJSON(x)
	case map[string]any:
		return docToJSON(storage.Document(x))
	case []byte:
		return map[string]any{bytesTag: base64.StdEncoding.EncodeToString(x)}
	case []any:
		arr := make([]any, len(x))
		for i, e := range x {
			arr[i] = valueToJSON(e)
		}
		return arr
	default:
		return x
	}
}

// jsonToDoc normalizes a decoded JSON map into a storage.Document.
// JSON numbers arrive as float64; integral values are converted back
// to int64 so ids and counters behave as expected.
func jsonToDoc(m map[string]any) (storage.Document, error) {
	if m == nil {
		return nil, nil
	}
	out := make(storage.Document, len(m))
	for k, v := range m {
		nv, err := jsonValue(v)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", k, err)
		}
		out[k] = nv
	}
	return out, nil
}

func jsonValue(v any) (any, error) {
	switch x := v.(type) {
	case json.Number:
		// Integers decode exactly (UseNumber avoids the float64 detour
		// that corrupts values above 2^53); non-integers fall back to
		// float64.
		if i, err := strconv.ParseInt(string(x), 10, 64); err == nil {
			return i, nil
		}
		f, err := x.Float64()
		if err != nil {
			return nil, fmt.Errorf("wire: bad number %q", string(x))
		}
		return f, nil
	case float64:
		if x == float64(int64(x)) {
			return int64(x), nil
		}
		return x, nil
	case map[string]any:
		if b64, ok := x[bytesTag].(string); ok && len(x) == 1 {
			raw, err := base64.StdEncoding.DecodeString(b64)
			if err != nil {
				return nil, fmt.Errorf("wire: bad %s value: %w", bytesTag, err)
			}
			return raw, nil
		}
		return jsonToDoc(x)
	case []any:
		arr := make([]any, len(x))
		for i, e := range x {
			ne, err := jsonValue(e)
			if err != nil {
				return nil, err
			}
			arr[i] = ne
		}
		return arr, nil
	default:
		return storage.Normalize(v)
	}
}
