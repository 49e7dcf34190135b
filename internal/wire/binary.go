package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"decongestant/internal/obs"
	"decongestant/internal/obs/trace"
	"decongestant/internal/storage"
)

// The body codec: hand-rolled binary encoding for Request and
// Response. A body is a sequence of fields, each a uvarint tag followed
// by a tag-specific payload; absent fields are simply not written, and
// unknown tags are a decode error (both sides checked the hello's
// version, so there is no skew to tolerate). Documents travel as
// BSON-lite, which is self-delimiting — the server can splice a cached
// encoding straight into the frame, and the decoder hands concatenated
// docs to storage.DecodeDocPrefix one after another. Metrics snapshots,
// span exports and currentOp rows are the exception: they ride as JSON
// inside a binary field, since they are rare, large, and not on any
// hot path.

var errBadFrame = errors.New("wire: corrupt binary frame")

// Request field tags.
const (
	rqID          = 1  // uvarint
	rqOpCode      = 2  // byte, from opCodes
	rqOpName      = 3  // string, for ops outside the table
	rqNode        = 4  // varint
	rqCollection  = 5  // string
	rqDocID       = 6  // string
	rqIDs         = 7  // uvarint count + strings
	rqFilter      = 8  // see appendFilter
	rqLimit       = 9  // varint
	rqMuts        = 10 // uvarint count + mutations
	rqAfterSecs   = 11 // varint
	rqAfterInc    = 12 // uvarint
	rqSource      = 13 // string
	rqSnapshot    = 14 // uvarint length + JSON bytes
	rqTrace       = 15 // see appendTraceContext
	rqBound       = 16 // varint audited staleness bound, seconds
	rqSpans       = 17 // uvarint length + JSON bytes (trace_push payload)
	rqReadConcern = 18 // varint read concern (see the RC constants)
	rqWantFresh   = 19 // flag byte: report observed staleness in the response
)

// Response field tags.
const (
	rsID        = 1  // uvarint
	rsErr       = 2  // string
	rsFound     = 3  // byte
	rsDoc       = 4  // BSON-lite document
	rsDocs      = 5  // uvarint count + BSON-lite documents
	rsCount     = 6  // varint
	rsTopo      = 7  // varint primary + uvarint count + zone strings
	rsStatus    = 8  // see appendStatus
	rsOpSecs    = 9  // varint
	rsOpInc     = 10 // uvarint
	rsMetrics   = 11 // uvarint length + JSON bytes
	rsCode      = 12 // varint error code (classifies rsErr)
	rsSpans     = 13 // uvarint length + JSON bytes (trace op result)
	rsOps       = 14 // uvarint length + JSON bytes (current_op result)
	rsShards    = 15 // uvarint count + (varint id, string addr) rows
	rsChunks    = 16 // uvarint version + uvarint count + chunk rows
	rsEntries   = 17 // uvarint count + oplog entry rows
	rsTruncS    = 18 // varint oplog truncation horizon, seconds part
	rsTruncI    = 19 // uvarint oplog truncation horizon, inc part
	rsStaleSecs = 20 // varint observed staleness (answers rqWantFresh)
)

// opCodes maps op names to single-byte codes for the binary codec;
// opNames is the inverse. Ops outside the table (a misbehaving client,
// a future extension) travel by name so the server can reject them
// with its usual "unknown op" error instead of a frame error.
var opCodes = map[string]byte{
	OpTopology:    1,
	OpPing:        2,
	OpStatus:      3,
	OpFindByID:    4,
	OpFindMany:    5,
	OpFind:        6,
	OpCount:       7,
	OpWriteBatch:  8,
	OpMetrics:     9,
	OpMetricsPush: 10,
	OpTrace:       11,
	OpCurrentOp:   12,
	OpTracePush:   13,
	OpListShards:  14,
	OpChunkMap:    15,
	OpOplogTail:   16,
	OpMoveChunk:   17,
}

var opNames = func() map[byte]string {
	m := make(map[byte]string, len(opCodes))
	for name, code := range opCodes {
		m[code] = name
	}
	return m
}()

// Mutation kind codes. Oplog entries reuse them plus "noop" (entries
// ride replication, where heartbeats exist; mutations never carry one).
var kindCodes = map[string]byte{"insert": 1, "set": 2, "delete": 3}

const entryKindNoop = 4

var kindNames = func() map[byte]string {
	m := make(map[byte]string, len(kindCodes))
	for name, code := range kindCodes {
		m[code] = name
	}
	return m
}()

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func getUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errBadFrame
	}
	return v, b[n:], nil
}

func getVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, errBadFrame
	}
	return v, b[n:], nil
}

func getByte(b []byte) (byte, []byte, error) {
	if len(b) == 0 {
		return 0, nil, errBadFrame
	}
	return b[0], b[1:], nil
}

// getString decodes a length-prefixed string into a fresh copy, so it
// never aliases the frame buffer.
func getString(b []byte) (string, []byte, error) {
	n, b, err := getUvarint(b)
	if err != nil || n > uint64(len(b)) {
		return "", nil, errBadFrame
	}
	return string(b[:n]), b[n:], nil
}

// getBytes decodes a length-prefixed byte payload without copying; the
// caller must consume it before the frame buffer is reused.
func getBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := getUvarint(b)
	if err != nil || n > uint64(len(b)) {
		return nil, nil, errBadFrame
	}
	return b[:n], b[n:], nil
}

// maxRouteString bounds the route snapshot's pref/reason strings; both
// come from small enum-like sets, so anything longer is corruption.
const maxRouteString = 64

// appendTraceContext encodes the compact trace context: trace id, span
// id, then a route-presence byte optionally followed by the balancer
// decision snapshot. A request with no sampled context writes nothing
// at all (the tag is skipped), so tracing-off costs zero wire bytes.
func appendTraceContext(dst []byte, c *trace.Context) []byte {
	dst = binary.AppendUvarint(dst, c.TraceID)
	dst = binary.AppendUvarint(dst, c.SpanID)
	if c.Route == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = appendString(dst, c.Route.Pref)
	dst = appendString(dst, c.Route.Reason)
	dst = binary.AppendVarint(dst, int64(c.Route.FracPct))
	dst = binary.AppendVarint(dst, c.Route.StaleSecs)
	if c.Route.Gated {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// decodeTraceContext is the inverse of appendTraceContext. Corrupt
// contexts (zero trace id, bad flag bytes, oversized route strings)
// are frame errors; nothing here allocates proportionally to attacker-
// controlled counts.
func decodeTraceContext(b []byte) (*trace.Context, []byte, error) {
	tid, b, err := getUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if tid == 0 {
		return nil, nil, fmt.Errorf("%w: zero trace id", errBadFrame)
	}
	sid, b, err := getUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	flag, b, err := getByte(b)
	if err != nil {
		return nil, nil, err
	}
	c := &trace.Context{TraceID: tid, SpanID: sid}
	switch flag {
	case 0:
		return c, b, nil
	case 1:
	default:
		return nil, nil, fmt.Errorf("%w: trace route flag %d", errBadFrame, flag)
	}
	rt := &trace.Route{}
	if rt.Pref, b, err = getString(b); err != nil || len(rt.Pref) > maxRouteString {
		return nil, nil, errBadFrame
	}
	if rt.Reason, b, err = getString(b); err != nil || len(rt.Reason) > maxRouteString {
		return nil, nil, errBadFrame
	}
	var v int64
	if v, b, err = getVarint(b); err != nil {
		return nil, nil, err
	}
	rt.FracPct = int(v)
	if rt.StaleSecs, b, err = getVarint(b); err != nil {
		return nil, nil, err
	}
	if flag, b, err = getByte(b); err != nil {
		return nil, nil, err
	}
	switch flag {
	case 0:
	case 1:
		rt.Gated = true
	default:
		return nil, nil, fmt.Errorf("%w: trace gated flag %d", errBadFrame, flag)
	}
	c.Route = rt
	return c, b, nil
}

// encodeRequest appends r's binary body to dst.
func encodeRequest(dst []byte, r *Request) ([]byte, error) {
	if r.ID != 0 {
		dst = binary.AppendUvarint(dst, rqID)
		dst = binary.AppendUvarint(dst, r.ID)
	}
	if code, ok := opCodes[r.Op]; ok {
		dst = binary.AppendUvarint(dst, rqOpCode)
		dst = append(dst, code)
	} else if r.Op != "" {
		dst = binary.AppendUvarint(dst, rqOpName)
		dst = appendString(dst, r.Op)
	}
	if r.Node != 0 {
		dst = binary.AppendUvarint(dst, rqNode)
		dst = binary.AppendVarint(dst, int64(r.Node))
	}
	if r.Collection != "" {
		dst = binary.AppendUvarint(dst, rqCollection)
		dst = appendString(dst, r.Collection)
	}
	if r.DocID != "" {
		dst = binary.AppendUvarint(dst, rqDocID)
		dst = appendString(dst, r.DocID)
	}
	if len(r.IDs) > 0 {
		dst = binary.AppendUvarint(dst, rqIDs)
		dst = binary.AppendUvarint(dst, uint64(len(r.IDs)))
		for _, id := range r.IDs {
			dst = appendString(dst, id)
		}
	}
	if r.Filter != nil {
		dst = binary.AppendUvarint(dst, rqFilter)
		var err error
		if dst, err = appendFilter(dst, r.Filter); err != nil {
			return nil, err
		}
	}
	if r.Limit != 0 {
		dst = binary.AppendUvarint(dst, rqLimit)
		dst = binary.AppendVarint(dst, int64(r.Limit))
	}
	if len(r.Muts) > 0 {
		dst = binary.AppendUvarint(dst, rqMuts)
		dst = binary.AppendUvarint(dst, uint64(len(r.Muts)))
		for i := range r.Muts {
			var err error
			if dst, err = appendMutation(dst, &r.Muts[i]); err != nil {
				return nil, err
			}
		}
	}
	if r.AfterSecs != 0 {
		dst = binary.AppendUvarint(dst, rqAfterSecs)
		dst = binary.AppendVarint(dst, r.AfterSecs)
	}
	if r.AfterInc != 0 {
		dst = binary.AppendUvarint(dst, rqAfterInc)
		dst = binary.AppendUvarint(dst, uint64(r.AfterInc))
	}
	if r.Source != "" {
		dst = binary.AppendUvarint(dst, rqSource)
		dst = appendString(dst, r.Source)
	}
	if r.Snapshot != nil {
		body, err := json.Marshal(r.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("wire: marshal snapshot: %w", err)
		}
		dst = binary.AppendUvarint(dst, rqSnapshot)
		dst = binary.AppendUvarint(dst, uint64(len(body)))
		dst = append(dst, body...)
	}
	if r.Trace != nil && r.Trace.TraceID != 0 {
		dst = binary.AppendUvarint(dst, rqTrace)
		dst = appendTraceContext(dst, r.Trace)
	}
	if r.BoundSecs != 0 {
		dst = binary.AppendUvarint(dst, rqBound)
		dst = binary.AppendVarint(dst, r.BoundSecs)
	}
	if len(r.Spans) > 0 {
		body, err := json.Marshal(r.Spans)
		if err != nil {
			return nil, fmt.Errorf("wire: marshal spans: %w", err)
		}
		dst = binary.AppendUvarint(dst, rqSpans)
		dst = binary.AppendUvarint(dst, uint64(len(body)))
		dst = append(dst, body...)
	}
	if r.ReadConcern != 0 {
		dst = binary.AppendUvarint(dst, rqReadConcern)
		dst = binary.AppendVarint(dst, int64(r.ReadConcern))
	}
	if r.WantFresh {
		dst = binary.AppendUvarint(dst, rqWantFresh)
		dst = append(dst, 1)
	}
	return dst, nil
}

// decodeRequest parses a binary body into r.
func decodeRequest(b []byte, r *Request) error {
	var err error
	for len(b) > 0 {
		var tag uint64
		if tag, b, err = getUvarint(b); err != nil {
			return err
		}
		switch tag {
		case rqID:
			r.ID, b, err = getUvarint(b)
		case rqOpCode:
			var code byte
			if code, b, err = getByte(b); err == nil {
				name, ok := opNames[code]
				if !ok {
					return fmt.Errorf("%w: op code %d", errBadFrame, code)
				}
				r.Op = name
			}
		case rqOpName:
			r.Op, b, err = getString(b)
		case rqNode:
			var v int64
			if v, b, err = getVarint(b); err == nil {
				r.Node = int(v)
			}
		case rqCollection:
			r.Collection, b, err = getString(b)
		case rqDocID:
			r.DocID, b, err = getString(b)
		case rqIDs:
			var n uint64
			if n, b, err = getUvarint(b); err != nil {
				return err
			}
			if n > uint64(len(b)) { // each id costs ≥1 byte
				return errBadFrame
			}
			ids := make([]string, 0, n)
			for i := uint64(0); i < n; i++ {
				var id string
				if id, b, err = getString(b); err != nil {
					return err
				}
				ids = append(ids, id)
			}
			r.IDs = ids
		case rqFilter:
			r.Filter, b, err = decodeFilter(b)
		case rqLimit:
			var v int64
			if v, b, err = getVarint(b); err == nil {
				r.Limit = int(v)
			}
		case rqMuts:
			var n uint64
			if n, b, err = getUvarint(b); err != nil {
				return err
			}
			if n > uint64(len(b))/4 { // kind + three length bytes minimum
				return errBadFrame
			}
			muts := make([]Mutation, 0, n)
			for i := uint64(0); i < n; i++ {
				var m Mutation
				if b, err = decodeMutation(b, &m); err != nil {
					return err
				}
				muts = append(muts, m)
			}
			r.Muts = muts
		case rqAfterSecs:
			r.AfterSecs, b, err = getVarint(b)
		case rqAfterInc:
			var v uint64
			if v, b, err = getUvarint(b); err == nil {
				r.AfterInc = uint32(v)
			}
		case rqSource:
			r.Source, b, err = getString(b)
		case rqSnapshot:
			var body []byte
			if body, b, err = getBytes(b); err != nil {
				return err
			}
			snap := &obs.Snapshot{}
			if err = json.Unmarshal(body, snap); err != nil {
				return fmt.Errorf("wire: unmarshal snapshot: %w", err)
			}
			r.Snapshot = snap
		case rqTrace:
			r.Trace, b, err = decodeTraceContext(b)
		case rqBound:
			r.BoundSecs, b, err = getVarint(b)
		case rqSpans:
			var body []byte
			if body, b, err = getBytes(b); err != nil {
				return err
			}
			var spans []trace.Span
			if err = json.Unmarshal(body, &spans); err != nil {
				return fmt.Errorf("wire: unmarshal spans: %w", err)
			}
			r.Spans = spans
		case rqReadConcern:
			var v int64
			if v, b, err = getVarint(b); err == nil {
				r.ReadConcern = int(v)
			}
		case rqWantFresh:
			var v byte
			if v, b, err = getByte(b); err == nil {
				if v != 1 {
					return fmt.Errorf("%w: want_fresh flag %d", errBadFrame, v)
				}
				r.WantFresh = true
			}
		default:
			return fmt.Errorf("%w: request tag %d", errBadFrame, tag)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// twoSidedBit marks a two-sided range condition in the filter op byte:
// when set, a second op byte and bound value follow the first value.
const twoSidedBit = 0x80

// appendFilter encodes a storage.Filter: uvarint condition count, then
// per condition the field name, a 1-byte op (high bit = two-sided),
// the value (BSON-lite, nil encoded explicitly), the optional second
// op byte + bound, and a uvarint-counted value list. Values are
// normalized defensively so hand-built filters with plain ints still
// encode.
func appendFilter(dst []byte, f storage.Filter) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(f)))
	for field, c := range f {
		dst = appendString(dst, field)
		opByte := byte(c.Op)
		if c.Op2 != 0 {
			opByte |= twoSidedBit
		}
		dst = append(dst, opByte)
		v, err := storage.Normalize(c.Value)
		if err != nil {
			return nil, err
		}
		dst = storage.AppendValue(dst, v)
		if c.Op2 != 0 {
			dst = append(dst, byte(c.Op2))
			if v, err = storage.Normalize(c.Value2); err != nil {
				return nil, err
			}
			dst = storage.AppendValue(dst, v)
		}
		dst = binary.AppendUvarint(dst, uint64(len(c.Values)))
		for _, e := range c.Values {
			if v, err = storage.Normalize(e); err != nil {
				return nil, err
			}
			dst = storage.AppendValue(dst, v)
		}
	}
	return dst, nil
}

// decodeFilter is the inverse of appendFilter. Decoded conditions are
// already canonical — the server plans and matches on them without
// re-normalizing.
func decodeFilter(b []byte) (storage.Filter, []byte, error) {
	n, b, err := getUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b))/3 { // field byte + op byte + value tag minimum
		return nil, nil, errBadFrame
	}
	f := make(storage.Filter, n)
	for i := uint64(0); i < n; i++ {
		var field string
		if field, b, err = getString(b); err != nil {
			return nil, nil, err
		}
		var op byte
		if op, b, err = getByte(b); err != nil {
			return nil, nil, err
		}
		twoSided := op&twoSidedBit != 0
		op &^= twoSidedBit
		if storage.Op(op) > storage.OpExists {
			return nil, nil, fmt.Errorf("%w: filter op %d", errBadFrame, op)
		}
		var c storage.Cond
		c.Op = storage.Op(op)
		if c.Value, b, err = storage.DecodeValue(b); err != nil {
			return nil, nil, errBadFrame
		}
		if twoSided {
			var op2 byte
			if op2, b, err = getByte(b); err != nil {
				return nil, nil, err
			}
			if op2 == 0 || storage.Op(op2) > storage.OpExists {
				return nil, nil, fmt.Errorf("%w: filter op2 %d", errBadFrame, op2)
			}
			c.Op2 = storage.Op(op2)
			if c.Value2, b, err = storage.DecodeValue(b); err != nil {
				return nil, nil, errBadFrame
			}
		}
		var nv uint64
		if nv, b, err = getUvarint(b); err != nil {
			return nil, nil, err
		}
		if nv > uint64(len(b)) { // each value costs ≥1 byte
			return nil, nil, errBadFrame
		}
		if nv > 0 {
			c.Values = make([]any, 0, nv)
			for j := uint64(0); j < nv; j++ {
				var v any
				if v, b, err = storage.DecodeValue(b); err != nil {
					return nil, nil, errBadFrame
				}
				c.Values = append(c.Values, v)
			}
		}
		f[field] = c
	}
	return f, b, nil
}

// appendMutation encodes one buffered write: a kind byte (or 0 + name
// for unknown kinds, which the server rejects itself), collection,
// doc id, and an optional BSON-lite document.
func appendMutation(dst []byte, m *Mutation) ([]byte, error) {
	if code, ok := kindCodes[m.Kind]; ok {
		dst = append(dst, code)
	} else {
		dst = append(dst, 0)
		dst = appendString(dst, m.Kind)
	}
	dst = appendString(dst, m.Collection)
	dst = appendString(dst, m.DocID)
	if m.Doc == nil {
		return append(dst, 0), nil
	}
	dst = append(dst, 1)
	return storage.AppendDoc(dst, m.Doc), nil
}

func decodeMutation(b []byte, m *Mutation) ([]byte, error) {
	code, b, err := getByte(b)
	if err != nil {
		return nil, err
	}
	if code == 0 {
		if m.Kind, b, err = getString(b); err != nil {
			return nil, err
		}
	} else {
		name, ok := kindNames[code]
		if !ok {
			return nil, fmt.Errorf("%w: mutation kind %d", errBadFrame, code)
		}
		m.Kind = name
	}
	if m.Collection, b, err = getString(b); err != nil {
		return nil, err
	}
	if m.DocID, b, err = getString(b); err != nil {
		return nil, err
	}
	var hasDoc byte
	if hasDoc, b, err = getByte(b); err != nil {
		return nil, err
	}
	if hasDoc == 1 {
		if m.Doc, b, err = storage.DecodeDocPrefix(b); err != nil {
			return nil, errBadFrame
		}
	} else if hasDoc != 0 {
		return nil, errBadFrame
	}
	return b, nil
}

// encodeResponse appends r's binary body to dst. Document payloads
// prefer the raw cached encodings (rawDoc/rawDocs) — spliced in with a
// copy but no re-encoding — then the typed documents.
func encodeResponse(dst []byte, r *Response) ([]byte, error) {
	if r.ID != 0 {
		dst = binary.AppendUvarint(dst, rsID)
		dst = binary.AppendUvarint(dst, r.ID)
	}
	if r.Err != "" {
		dst = binary.AppendUvarint(dst, rsErr)
		dst = appendString(dst, r.Err)
	}
	if r.Code != 0 {
		dst = binary.AppendUvarint(dst, rsCode)
		dst = binary.AppendVarint(dst, int64(r.Code))
	}
	if r.Found {
		dst = binary.AppendUvarint(dst, rsFound)
		dst = append(dst, 1)
	}
	switch {
	case r.rawDoc != nil:
		dst = binary.AppendUvarint(dst, rsDoc)
		dst = append(dst, r.rawDoc...)
	case r.doc != nil:
		dst = binary.AppendUvarint(dst, rsDoc)
		dst = storage.AppendDoc(dst, r.doc)
	}
	switch {
	case r.rawDocs != nil:
		dst = binary.AppendUvarint(dst, rsDocs)
		dst = binary.AppendUvarint(dst, uint64(len(r.rawDocs)))
		for _, raw := range r.rawDocs {
			dst = append(dst, raw...)
		}
	case r.docs != nil:
		dst = binary.AppendUvarint(dst, rsDocs)
		dst = binary.AppendUvarint(dst, uint64(len(r.docs)))
		for _, d := range r.docs {
			dst = storage.AppendDoc(dst, d)
		}
	}
	if r.Count != 0 {
		dst = binary.AppendUvarint(dst, rsCount)
		dst = binary.AppendVarint(dst, int64(r.Count))
	}
	if r.Topo != nil {
		dst = binary.AppendUvarint(dst, rsTopo)
		dst = binary.AppendVarint(dst, int64(r.Topo.Primary))
		dst = binary.AppendUvarint(dst, uint64(len(r.Topo.Zones)))
		for _, z := range r.Topo.Zones {
			dst = appendString(dst, z)
		}
	}
	if r.Status != nil {
		dst = binary.AppendUvarint(dst, rsStatus)
		dst = binary.AppendVarint(dst, int64(r.Status.From))
		dst = binary.AppendVarint(dst, int64(r.Status.Primary))
		dst = binary.AppendUvarint(dst, r.Status.LeaseEpoch)
		dst = binary.AppendUvarint(dst, uint64(len(r.Status.Members)))
		for _, m := range r.Status.Members {
			dst = binary.AppendVarint(dst, int64(m.ID))
			// One flag byte per member: bit 0 primary, bit 1 leased.
			var flags byte
			if m.Primary {
				flags |= 1
			}
			if m.Leased {
				flags |= 2
			}
			dst = append(dst, flags)
			dst = binary.AppendVarint(dst, m.Secs)
			dst = binary.AppendUvarint(dst, uint64(m.Inc))
		}
	}
	if r.OpSecs != 0 {
		dst = binary.AppendUvarint(dst, rsOpSecs)
		dst = binary.AppendVarint(dst, r.OpSecs)
	}
	if r.OpInc != 0 {
		dst = binary.AppendUvarint(dst, rsOpInc)
		dst = binary.AppendUvarint(dst, uint64(r.OpInc))
	}
	if r.Metrics != nil {
		body, merr := json.Marshal(r.Metrics)
		if merr != nil {
			return nil, fmt.Errorf("wire: marshal metrics: %w", merr)
		}
		dst = binary.AppendUvarint(dst, rsMetrics)
		dst = binary.AppendUvarint(dst, uint64(len(body)))
		dst = append(dst, body...)
	}
	// Spans and Ops ride as JSON inside the binary field, like metrics
	// snapshots: trace export is rare and explicitly a JSON surface.
	if len(r.Spans) > 0 {
		body, merr := json.Marshal(r.Spans)
		if merr != nil {
			return nil, fmt.Errorf("wire: marshal spans: %w", merr)
		}
		dst = binary.AppendUvarint(dst, rsSpans)
		dst = binary.AppendUvarint(dst, uint64(len(body)))
		dst = append(dst, body...)
	}
	if len(r.Ops) > 0 {
		body, merr := json.Marshal(r.Ops)
		if merr != nil {
			return nil, fmt.Errorf("wire: marshal ops: %w", merr)
		}
		dst = binary.AppendUvarint(dst, rsOps)
		dst = binary.AppendUvarint(dst, uint64(len(body)))
		dst = append(dst, body...)
	}
	if len(r.Shards) > 0 {
		dst = binary.AppendUvarint(dst, rsShards)
		dst = binary.AppendUvarint(dst, uint64(len(r.Shards)))
		for _, sh := range r.Shards {
			dst = binary.AppendVarint(dst, int64(sh.ID))
			dst = appendString(dst, sh.Addr)
		}
	}
	if r.Chunks != nil {
		dst = binary.AppendUvarint(dst, rsChunks)
		dst = binary.AppendUvarint(dst, r.Chunks.Version)
		dst = binary.AppendUvarint(dst, uint64(len(r.Chunks.Chunks)))
		for _, ck := range r.Chunks.Chunks {
			dst = appendString(dst, ck.Min)
			dst = appendString(dst, ck.Max)
			dst = binary.AppendVarint(dst, int64(ck.Shard))
		}
	}
	if len(r.Entries) > 0 {
		dst = binary.AppendUvarint(dst, rsEntries)
		dst = binary.AppendUvarint(dst, uint64(len(r.Entries)))
		for i := range r.Entries {
			e := &r.Entries[i]
			dst = binary.AppendVarint(dst, e.Secs)
			dst = binary.AppendUvarint(dst, uint64(e.Inc))
			if code, ok := kindCodes[e.Kind]; ok {
				dst = append(dst, code)
			} else {
				dst = append(dst, entryKindNoop)
			}
			dst = appendString(dst, e.Collection)
			dst = appendString(dst, e.DocID)
			if e.Doc == nil {
				dst = append(dst, 0)
			} else {
				dst = append(dst, 1)
				dst = storage.AppendDoc(dst, e.Doc)
			}
		}
	}
	if r.TruncSecs != 0 {
		dst = binary.AppendUvarint(dst, rsTruncS)
		dst = binary.AppendVarint(dst, r.TruncSecs)
	}
	if r.TruncInc != 0 {
		dst = binary.AppendUvarint(dst, rsTruncI)
		dst = binary.AppendUvarint(dst, uint64(r.TruncInc))
	}
	if r.StaleSecs != 0 {
		dst = binary.AppendUvarint(dst, rsStaleSecs)
		dst = binary.AppendVarint(dst, r.StaleSecs)
	}
	return dst, nil
}

// decodeResponse parses a binary body into r, filling the typed
// document fields (doc/docs).
func decodeResponse(b []byte, r *Response) error {
	var err error
	for len(b) > 0 {
		var tag uint64
		if tag, b, err = getUvarint(b); err != nil {
			return err
		}
		switch tag {
		case rsID:
			r.ID, b, err = getUvarint(b)
		case rsErr:
			r.Err, b, err = getString(b)
		case rsFound:
			var v byte
			if v, b, err = getByte(b); err == nil {
				r.Found = v != 0
			}
		case rsDoc:
			if r.doc, b, err = storage.DecodeDocPrefix(b); err != nil {
				return errBadFrame
			}
		case rsDocs:
			var n uint64
			if n, b, err = getUvarint(b); err != nil {
				return err
			}
			if n > uint64(len(b)) { // each doc costs ≥1 byte
				return errBadFrame
			}
			docs := make([]storage.Document, 0, n)
			for i := uint64(0); i < n; i++ {
				var d storage.Document
				if d, b, err = storage.DecodeDocPrefix(b); err != nil {
					return errBadFrame
				}
				docs = append(docs, d)
			}
			r.docs = docs
		case rsCount:
			var v int64
			if v, b, err = getVarint(b); err == nil {
				r.Count = int(v)
			}
		case rsTopo:
			topo := &Topology{}
			var v int64
			if v, b, err = getVarint(b); err != nil {
				return err
			}
			topo.Primary = int(v)
			var n uint64
			if n, b, err = getUvarint(b); err != nil {
				return err
			}
			if n > uint64(len(b))+1 { // zones may be empty strings
				return errBadFrame
			}
			topo.Zones = make([]string, 0, n)
			for i := uint64(0); i < n; i++ {
				var z string
				if z, b, err = getString(b); err != nil {
					return err
				}
				topo.Zones = append(topo.Zones, z)
			}
			r.Topo = topo
		case rsStatus:
			st := &StatusBody{}
			var v int64
			if v, b, err = getVarint(b); err != nil {
				return err
			}
			st.From = int(v)
			if v, b, err = getVarint(b); err != nil {
				return err
			}
			st.Primary = int(v)
			if st.LeaseEpoch, b, err = getUvarint(b); err != nil {
				return err
			}
			var n uint64
			if n, b, err = getUvarint(b); err != nil {
				return err
			}
			if n > uint64(len(b))/4 { // id + flags + secs + inc minimum
				return errBadFrame
			}
			st.Members = make([]Member, 0, n)
			for i := uint64(0); i < n; i++ {
				var m Member
				if v, b, err = getVarint(b); err != nil {
					return err
				}
				m.ID = int(v)
				var flags byte
				if flags, b, err = getByte(b); err != nil {
					return err
				}
				if flags > 3 {
					return fmt.Errorf("%w: member flags %d", errBadFrame, flags)
				}
				m.Primary = flags&1 != 0
				m.Leased = flags&2 != 0
				if m.Secs, b, err = getVarint(b); err != nil {
					return err
				}
				var inc uint64
				if inc, b, err = getUvarint(b); err != nil {
					return err
				}
				m.Inc = uint32(inc)
				st.Members = append(st.Members, m)
			}
			r.Status = st
		case rsCode:
			var v int64
			if v, b, err = getVarint(b); err == nil {
				r.Code = int(v)
			}
		case rsOpSecs:
			r.OpSecs, b, err = getVarint(b)
		case rsOpInc:
			var v uint64
			if v, b, err = getUvarint(b); err == nil {
				r.OpInc = uint32(v)
			}
		case rsMetrics:
			var body []byte
			if body, b, err = getBytes(b); err != nil {
				return err
			}
			snap := &obs.Snapshot{}
			if err = json.Unmarshal(body, snap); err != nil {
				return fmt.Errorf("wire: unmarshal metrics: %w", err)
			}
			r.Metrics = snap
		case rsSpans:
			var body []byte
			if body, b, err = getBytes(b); err != nil {
				return err
			}
			var spans []trace.Span
			if err = json.Unmarshal(body, &spans); err != nil {
				return fmt.Errorf("wire: unmarshal spans: %w", err)
			}
			r.Spans = spans
		case rsOps:
			var body []byte
			if body, b, err = getBytes(b); err != nil {
				return err
			}
			var ops []trace.OpInfo
			if err = json.Unmarshal(body, &ops); err != nil {
				return fmt.Errorf("wire: unmarshal ops: %w", err)
			}
			r.Ops = ops
		case rsShards:
			var n uint64
			if n, b, err = getUvarint(b); err != nil {
				return err
			}
			if n > uint64(len(b))/2 { // id byte + addr length byte minimum
				return errBadFrame
			}
			shards := make([]ShardInfo, 0, n)
			for i := uint64(0); i < n; i++ {
				var sh ShardInfo
				var v int64
				if v, b, err = getVarint(b); err != nil {
					return err
				}
				sh.ID = int(v)
				if sh.Addr, b, err = getString(b); err != nil {
					return err
				}
				shards = append(shards, sh)
			}
			r.Shards = shards
		case rsChunks:
			cm := &ChunkMapBody{}
			if cm.Version, b, err = getUvarint(b); err != nil {
				return err
			}
			var n uint64
			if n, b, err = getUvarint(b); err != nil {
				return err
			}
			if n > uint64(len(b))/3 { // two length bytes + shard byte minimum
				return errBadFrame
			}
			cm.Chunks = make([]ChunkInfo, 0, n)
			for i := uint64(0); i < n; i++ {
				var ck ChunkInfo
				if ck.Min, b, err = getString(b); err != nil {
					return err
				}
				if ck.Max, b, err = getString(b); err != nil {
					return err
				}
				var v int64
				if v, b, err = getVarint(b); err != nil {
					return err
				}
				ck.Shard = int(v)
				cm.Chunks = append(cm.Chunks, ck)
			}
			r.Chunks = cm
		case rsEntries:
			var n uint64
			if n, b, err = getUvarint(b); err != nil {
				return err
			}
			if n > uint64(len(b))/5 { // secs + inc + kind + 2 length bytes minimum
				return errBadFrame
			}
			entries := make([]EntryBody, 0, n)
			for i := uint64(0); i < n; i++ {
				var e EntryBody
				if e.Secs, b, err = getVarint(b); err != nil {
					return err
				}
				var inc uint64
				if inc, b, err = getUvarint(b); err != nil {
					return err
				}
				e.Inc = uint32(inc)
				var code byte
				if code, b, err = getByte(b); err != nil {
					return err
				}
				if code == entryKindNoop {
					e.Kind = "noop"
				} else if name, ok := kindNames[code]; ok {
					e.Kind = name
				} else {
					return fmt.Errorf("%w: entry kind %d", errBadFrame, code)
				}
				if e.Collection, b, err = getString(b); err != nil {
					return err
				}
				if e.DocID, b, err = getString(b); err != nil {
					return err
				}
				var hasDoc byte
				if hasDoc, b, err = getByte(b); err != nil {
					return err
				}
				if hasDoc == 1 {
					if e.Doc, b, err = storage.DecodeDocPrefix(b); err != nil {
						return errBadFrame
					}
				} else if hasDoc != 0 {
					return errBadFrame
				}
				entries = append(entries, e)
			}
			r.Entries = entries
		case rsTruncS:
			r.TruncSecs, b, err = getVarint(b)
		case rsTruncI:
			var v uint64
			if v, b, err = getUvarint(b); err == nil {
				r.TruncInc = uint32(v)
			}
		case rsStaleSecs:
			r.StaleSecs, b, err = getVarint(b)
		default:
			return fmt.Errorf("%w: response tag %d", errBadFrame, tag)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
