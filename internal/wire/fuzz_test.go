package wire

import (
	"testing"

	"decongestant/internal/obs/trace"
	"decongestant/internal/storage"
)

// FuzzDecodeFrame throws arbitrary bytes at the body decoders. The
// contract under corruption is: return an error, never panic, and
// never let an attacker-controlled count force a huge allocation (all
// counts are sanity-checked against the bytes that could back them
// before any make()).
func FuzzDecodeFrame(f *testing.F) {
	// Seed with valid encodings so mutation explores near-miss frames.
	req := Request{
		ID: 9, Op: OpFind, Node: 1, Collection: "orders", DocID: "d",
		IDs: []string{"a", "b"}, Limit: 3, AfterSecs: 7, AfterInc: 1,
	}
	req.Filter = storage.Filter{"w": storage.Eq(int64(2)), "s": storage.In("x", "y")}
	if body, err := encodeRequest(nil, &req); err == nil {
		f.Add(body)
	}
	doc, _ := storage.D{
		"_id": "z", "n": int64(5), "f": 1.5, "b": []byte{1, 2},
		"arr": []any{int64(1), "s"}, "sub": storage.D{"k": true},
	}.Normalized()
	resp := Response{ID: 4, Found: true, OpSecs: 3, OpInc: 2}
	resp.doc = doc
	resp.docs = []storage.Document{doc}
	if body, err := encodeResponse(nil, &resp); err == nil {
		f.Add(body)
	}
	// A request carrying the trace-context extension (tag 15), the
	// audited bound (16) and a span payload (17), so mutation explores
	// the tracing fields too.
	traced := Request{ID: 10, Op: OpFindByID, Node: 1, Collection: "kv", DocID: "a", BoundSecs: 3}
	traced.Trace = &trace.Context{TraceID: 7, SpanID: 8, Route: &trace.Route{
		Pref: "secondary", Reason: "bal-frac", FracPct: 40, StaleSecs: 2, Gated: true,
	}}
	traced.Spans = []trace.Span{{Trace: 7, ID: 9, Name: "client.exec_read", Node: -1}}
	if body, err := encodeRequest(nil, &traced); err == nil {
		f.Add(body)
	}
	// Shard-op frames: a mongos topology answer (shard roster + chunk
	// table) and an oplog_tail answer with entries and a truncation
	// horizon, so mutation explores the sharded-tier decoders too.
	shardResp := Response{
		ID: 11, OpSecs: 9, OpInc: 2, TruncSecs: 1, TruncInc: 1,
		Shards: []ShardInfo{{ID: 0, Addr: "127.0.0.1:27101"}, {ID: 1}},
		Chunks: &ChunkMapBody{Version: 3, Chunks: []ChunkInfo{
			{Min: "", Max: "m", Shard: 0}, {Min: "m", Max: "", Shard: 1},
		}},
	}
	shardResp.Entries = []EntryBody{
		{Secs: 9, Inc: 1, Kind: "set", Collection: "kv", DocID: "a", Doc: doc},
		{Secs: 9, Inc: 2, Kind: "delete", Collection: "kv", DocID: "b"},
	}
	if body, err := encodeResponse(nil, &shardResp); err == nil {
		f.Add(body)
	}
	moveReq := Request{ID: 12, Op: OpMoveChunk, DocID: "doc050", Node: 2}
	if body, err := encodeRequest(nil, &moveReq); err == nil {
		f.Add(body)
	}
	tailReq := Request{ID: 13, Op: OpOplogTail, AfterSecs: 9, AfterInc: 1, Limit: 64}
	if body, err := encodeRequest(nil, &tailReq); err == nil {
		f.Add(body)
	}
	f.Add([]byte{})
	f.Add([]byte{rqIDs, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})  // huge count, no bytes
	f.Add([]byte{rsDocs, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // huge doc count
	f.Add([]byte{rqFilter, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Add([]byte{rqTrace, 0x00, 0x06, 0x00})                  // zero trace id
	f.Add([]byte{rqTrace, 0x05, 0x06, 0x02})                  // bad route flag
	f.Add([]byte{rqTrace, 0x05, 0x06, 0x01, 0xFF, 0x01})      // oversized pref length
	f.Add([]byte{rqSpans, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})      // huge span blob, no bytes
	f.Add([]byte{rsSpans, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 'x'}) // huge response span blob
	f.Add([]byte{rsOps, 0x02, '[', ']'})
	f.Add([]byte{rsShards, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})       // huge shard count, no bytes
	f.Add([]byte{rsChunks, 0x03, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // huge chunk count
	f.Add([]byte{rsEntries, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 'k'}) // huge entry count
	f.Add([]byte{rsTruncS, 0x02, rsTruncI})                     // truncation inc cut short
	// PR 9 lease surface: a linearizable request, a status answer with
	// a lease epoch and leased members, and near-miss member flags.
	linReq := Request{ID: 14, Op: OpFindByID, Node: 2, Collection: "kv", DocID: "a",
		ReadConcern: RCLinearizable}
	if body, err := encodeRequest(nil, &linReq); err == nil {
		f.Add(body)
	}
	leaseResp := Response{ID: 15, Status: &StatusBody{From: 1, LeaseEpoch: 6,
		Members: []Member{{ID: 0, Primary: true, Leased: true, Secs: 3, Inc: 1}, {ID: 1, Leased: true}}}}
	if body, err := encodeResponse(nil, &leaseResp); err == nil {
		f.Add(body)
	}
	f.Add([]byte{rsStatus, 0x02, 0x00, 0x01, 0x01, 0x00, 0x04, 0x00, 0x00}) // invalid member flags
	f.Add([]byte{rqReadConcern, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})              // oversized read concern
	// PR 10 freshness-cache surface: a cache-fill read asking for the
	// observed staleness, the response carrying it, a two-sided filter
	// condition, and near-miss frames for both.
	freshReq := Request{ID: 16, Op: OpFindByID, Node: 1, Collection: "kv", DocID: "a",
		WantFresh: true, BoundSecs: 3}
	if body, err := encodeRequest(nil, &freshReq); err == nil {
		f.Add(body)
	}
	staleResp := Response{ID: 17, Found: true, OpSecs: 9, OpInc: 2, StaleSecs: 4}
	staleResp.doc = doc
	if body, err := encodeResponse(nil, &staleResp); err == nil {
		f.Add(body)
	}
	rangeReq := Request{ID: 18, Op: OpFind, Node: 0, Collection: "kv", Limit: 8}
	rangeReq.Filter = storage.Filter{"_id": storage.Range("doc10", "doc20")}
	if body, err := encodeRequest(nil, &rangeReq); err == nil {
		f.Add(body)
	}
	f.Add([]byte{rqWantFresh, 0x02})                                                 // invalid flag byte
	f.Add([]byte{rqWantFresh})                                                       // truncated flag
	f.Add([]byte{rsStaleSecs, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})                         // unterminated varint
	f.Add([]byte{rqFilter, 0x01, 0x01, 'k', 0x83, 0x02, 'a'})                        // two-sided bit, frame cut at op2
	f.Add([]byte{rqFilter, 0x01, 0x01, 'k', 0x83, 0x02, 'a', 0x00, 0x02, 'b', 0x00}) // zero op2

	f.Fuzz(func(t *testing.T, body []byte) {
		var rq Request
		_ = decodeRequest(body, &rq) // must not panic
		var rs Response
		_ = decodeResponse(body, &rs) // must not panic
		_, _, _ = storage.DecodeDocPrefix(body)
		_, _, _ = storage.DecodeValue(body)
	})
}
