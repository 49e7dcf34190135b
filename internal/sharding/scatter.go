package sharding

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"

	"decongestant/internal/cluster"
	"decongestant/internal/obs/trace"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// ShardOutcome is one shard's result of a scatter operation.
type ShardOutcome struct {
	Shard int
	Docs  int // documents (or count) contributed
	Err   error
}

// PartialError reports a scatter that could not reach every shard. It
// carries the per-shard outcomes so callers can distinguish "shard 2
// was down" from "everything failed". The merged results from the
// shards that did answer are still returned alongside it.
type PartialError struct {
	Outcomes []ShardOutcome
}

// Failed returns the outcomes of the shards that errored.
func (e *PartialError) Failed() []ShardOutcome {
	var out []ShardOutcome
	for _, o := range e.Outcomes {
		if o.Err != nil {
			out = append(out, o)
		}
	}
	return out
}

func (e *PartialError) Error() string {
	failed := e.Failed()
	parts := make([]string, 0, len(failed))
	for _, o := range failed {
		parts = append(parts, fmt.Sprintf("shard %d: %v", o.Shard, o.Err))
	}
	return fmt.Sprintf("sharding: scatter failed on %d/%d shards (%s)",
		len(failed), len(e.Outcomes), strings.Join(parts, "; "))
}

// ScatterOptions tunes scatter-gather failure semantics.
type ScatterOptions struct {
	// AllowPartial accepts results from the shards that answered: a
	// scatter succeeds (nil error) unless every shard failed. Without
	// it any shard failure surfaces as a *PartialError, with the
	// partial results still attached to the return value.
	AllowPartial bool
}

// shardPart is one shard's contribution, produced inside the fan-out.
type shardPart struct {
	docs  []storage.Document
	count int
	err   error
}

// fanOut runs one task per shard, each on its own spawned proc, and
// collects the results through a mailbox, so the shards are queried
// concurrently on either clock; RouterOptions.SequentialScatter runs
// the tasks one after another on p instead. It returns per-shard
// results indexed by shard.
func (r *Router) fanOut(p sim.Proc, task func(p sim.Proc, shard int) shardPart) []shardPart {
	parts := make([]shardPart, len(r.systems))
	if r.seqScatter {
		for i := range r.systems {
			parts[i] = task(p, i)
		}
		return parts
	}
	done := r.env.NewMailbox()
	for i := range r.systems {
		r.env.Spawn("sharding/scatter", func(sp sim.Proc) {
			parts[i] = task(sp, i)
			done.Send(nil)
		})
	}
	for range r.systems {
		done.Recv(p)
	}
	return parts
}

// scatter runs the per-shard read fn across all shards under a
// mongos.scatter span (when tctx is sampled), recording one child
// span per shard.
func (r *Router) scatter(p sim.Proc, tctx trace.Context, name string, fn func(p sim.Proc, shard int) shardPart) []shardPart {
	r.scatterTotal.Inc(1)
	if !tctx.Live() {
		return r.fanOut(p, fn)
	}
	parent := trace.Span{
		Trace:  tctx.TraceID,
		ID:     r.tracer.NewSpanID(),
		Parent: tctx.SpanID,
		Name:   "mongos.scatter",
		Node:   -1,
		Start:  r.env.Now(),
		Attrs:  []trace.Attr{{K: "op", V: name}, {K: "shards", V: fmt.Sprint(len(r.systems))}},
	}
	parts := r.fanOut(p, func(p sim.Proc, shard int) shardPart {
		start := r.env.Now()
		part := fn(p, shard)
		child := trace.Span{
			Trace:  tctx.TraceID,
			ID:     r.tracer.NewSpanID(),
			Parent: parent.ID,
			Name:   "mongos.shard_" + name,
			Node:   -1,
			Start:  start,
			Dur:    r.env.Now() - start,
			Attrs:  []trace.Attr{{K: "shard", V: fmt.Sprint(shard)}},
		}
		if part.err != nil {
			child.Attrs = append(child.Attrs, trace.Attr{K: "err", V: part.err.Error()})
		}
		r.tracer.Record(child)
		return part
	})
	parent.Dur = r.env.Now() - parent.Start
	r.tracer.Record(parent)
	return parts
}

// gather applies the partial-failure policy to per-shard outcomes:
// any failure bumps sharding.scatter_partial; with AllowPartial the
// scatter still succeeds unless every shard failed.
func (r *Router) gather(parts []shardPart, opts ScatterOptions) *PartialError {
	failed := 0
	outcomes := make([]ShardOutcome, len(parts))
	for i, part := range parts {
		n := part.count
		if n == 0 {
			n = len(part.docs)
		}
		outcomes[i] = ShardOutcome{Shard: i, Docs: n, Err: part.err}
		if part.err != nil {
			failed++
		}
	}
	if failed == 0 {
		return nil
	}
	r.scatterPartial.Inc(1)
	perr := &PartialError{Outcomes: outcomes}
	if opts.AllowPartial && failed < len(parts) {
		return nil
	}
	return perr
}

// ScatterFind fans a filtered query out to every shard (each through
// its own Decongestant routing decision) and merges the results in
// _id order, honoring the limit across the union. The shards are
// queried concurrently (see fanOut); the limit is pushed down so no
// shard returns more than the union needs.
func (r *Router) ScatterFind(p sim.Proc, collection string, f storage.Filter, limit int) ([]storage.Document, error) {
	return r.ScatterFindOpts(p, collection, f, limit, ScatterOptions{})
}

// ScatterFindOpts is ScatterFind with explicit failure semantics.
func (r *Router) ScatterFindOpts(p sim.Proc, collection string, f storage.Filter, limit int, opts ScatterOptions) ([]storage.Document, error) {
	return r.scatterFind(p, r.tracer.StartTrace(), collection, f, limit, opts)
}

func (r *Router) scatterFind(p sim.Proc, tctx trace.Context, collection string, f storage.Filter, limit int, opts ScatterOptions) ([]storage.Document, error) {
	r.noteCollection(collection)
	parts := r.scatter(p, tctx, "find", func(p sim.Proc, shard int) shardPart {
		res, _, _, err := r.systems[shard].Router.Read(p, func(v cluster.ReadView) (any, error) {
			return v.Find(collection, f, limit), nil
		})
		if err != nil {
			return shardPart{err: err}
		}
		docs := res.([]storage.Document)
		// Index-driven scans return index-key order; the k-way merge
		// needs each run sorted by _id.
		if !sorted(docs) {
			sort.Slice(docs, func(i, j int) bool { return docs[i].ID() < docs[j].ID() })
		}
		return shardPart{docs: docs}
	})
	perr := r.gather(parts, opts)
	runs := make([]shardRun, 0, len(parts))
	for shard, part := range parts {
		if part.err == nil && len(part.docs) > 0 {
			runs = append(runs, shardRun{shard: shard, docs: part.docs})
		}
	}
	merged := mergeByID(runs, limit, r.Owner)
	if perr != nil {
		return merged, perr
	}
	return merged, nil
}

// ScatterCount fans a filtered count to every shard and sums.
func (r *Router) ScatterCount(p sim.Proc, collection string, f storage.Filter) (int, error) {
	return r.ScatterCountOpts(p, collection, f, ScatterOptions{})
}

// ScatterCountOpts is ScatterCount with explicit failure semantics.
func (r *Router) ScatterCountOpts(p sim.Proc, collection string, f storage.Filter, opts ScatterOptions) (int, error) {
	return r.scatterCount(p, r.tracer.StartTrace(), collection, f, opts)
}

func (r *Router) scatterCount(p sim.Proc, tctx trace.Context, collection string, f storage.Filter, opts ScatterOptions) (int, error) {
	r.noteCollection(collection)
	// In chunk mode each shard counts only the ranges it owns under ONE
	// authoritative table snapshot, so a migrating range — transiently
	// present on both source and destination — is counted exactly once.
	// Registration precedes the snapshot: cleanup of a just-moved range
	// drains these entries first, so the copy being counted stays
	// intact. A caller-supplied _id condition intersects with each
	// chunk's range (two-sided range conditions carry the interval), so
	// _id-constrained filters get the same exactness guarantee instead
	// of falling back to the overcount-prone per-shard sum.
	var table *ChunkMap
	if r.auth != nil {
		var guards []lease
		table, guards = r.auth.enterScatter()
		defer func() {
			for _, g := range guards {
				g.release()
			}
		}()
	}
	parts := r.scatter(p, tctx, "count", func(p sim.Proc, shard int) shardPart {
		res, _, _, err := r.systems[shard].Router.Read(p, func(v cluster.ReadView) (any, error) {
			if table == nil {
				return v.Count(collection, f), nil
			}
			n := 0
			for _, ck := range table.Chunks {
				if ck.Shard == shard {
					n += chunkCount(v, collection, f, ck)
				}
			}
			return n, nil
		})
		if err != nil {
			return shardPart{err: err}
		}
		return shardPart{count: res.(int)}
	})
	perr := r.gather(parts, opts)
	total := 0
	for _, part := range parts {
		if part.err == nil {
			total += part.count
		}
	}
	if perr != nil {
		return total, perr
	}
	return total, nil
}

// chunkCount counts the f-matching documents inside [ck.Min, ck.Max)
// under one read view. Two-sided range conditions let the chunk bound
// and any caller-supplied _id condition merge into one closed-interval
// count — a single scan even against a remote view, so there is no
// pair of wire reads to straddle a concurrent write. Only the $ne
// shape still needs a difference (the interval minus the excluded
// point); its clamp guards the remote view, where those two counts are
// separate round trips.
func chunkCount(v cluster.ReadView, collection string, f storage.Filter, ck Chunk) int {
	g, empty, excluded := chunkFilter(f, ck)
	if empty {
		return 0
	}
	n := v.Count(collection, g)
	if excluded != "" {
		h := make(storage.Filter, len(g)+1)
		for k, c := range g {
			h[k] = c
		}
		h["_id"] = storage.Eq(excluded)
		n -= v.Count(collection, h)
		if n < 0 {
			n = 0
		}
	}
	return n
}

// chunkFilter returns f with its _id condition intersected with the
// chunk's [Min, Max) range. empty=true means the intersection is
// provably empty (count 0, no scan needed). excluded carries the
// single in-range _id a $ne condition removes; the caller subtracts
// its count separately, since a condition slot holds at most an
// interval. All _ids are strings, so a non-string bound is
// type-bracketed: equality/range/$in shapes match nothing, while $ne
// and $exists are vacuously true.
func chunkFilter(f storage.Filter, ck Chunk) (g storage.Filter, empty bool, excluded string) {
	lo, hi := ck.Min, ck.Max
	var inIDs []any
	cnd, has := f["_id"]
	if has {
		switch {
		case cnd.Op == storage.OpEq:
			s, ok := cnd.Value.(string)
			if !ok || !keyInRange(s, lo, hi) {
				return nil, true, ""
			}
			// The equality is at least as tight as the chunk bound, and
			// only the owning chunk reaches here: count it as-is.
			return f, false, ""
		case cnd.Op == storage.OpIn:
			for _, v := range cnd.Values {
				if s, ok := v.(string); ok && keyInRange(s, lo, hi) {
					inIDs = append(inIDs, s)
				}
			}
			if len(inIDs) == 0 {
				return nil, true, ""
			}
		case cnd.Op == storage.OpNe:
			if s, ok := cnd.Value.(string); ok && keyInRange(s, lo, hi) {
				excluded = s
			}
		case cnd.Op == storage.OpExists:
			// _id always exists; the chunk bound alone remains.
		case storage.IsRangeOp(cnd.Op):
			tighten := func(op storage.Op, v any) bool {
				s, ok := v.(string)
				if !ok {
					return false
				}
				switch op {
				case storage.OpGt:
					s += "\x00" // successor: Gt s == Gte s+"\x00" on raw strings
					fallthrough
				case storage.OpGte:
					if s > lo {
						lo = s
					}
				case storage.OpLte:
					s += "\x00"
					fallthrough
				case storage.OpLt:
					if hi == "" || s < hi {
						hi = s
					}
				}
				return true
			}
			if !tighten(cnd.Op, cnd.Value) {
				return nil, true, ""
			}
			if cnd.Op2 != 0 && !tighten(cnd.Op2, cnd.Value2) {
				return nil, true, ""
			}
		default:
			// An unknown condition shape matches nothing.
			return nil, true, ""
		}
	}
	if hi != "" && hi <= lo {
		return nil, true, ""
	}
	g = make(storage.Filter, len(f)+1)
	for k, c := range f {
		g[k] = c
	}
	switch {
	case inIDs != nil:
		g["_id"] = storage.Cond{Op: storage.OpIn, Values: inIDs}
	case lo == "" && hi == "":
		delete(g, "_id") // whole-keyspace chunk, no residual bound
	case hi == "":
		g["_id"] = storage.Gte(lo)
	case lo == "":
		g["_id"] = storage.Lt(hi)
	default:
		g["_id"] = storage.Range(lo, hi)
	}
	return g, false, excluded
}

func sorted(docs []storage.Document) bool {
	for i := 1; i < len(docs); i++ {
		if docs[i].ID() < docs[i-1].ID() {
			return false
		}
	}
	return true
}

// shardRun is one shard's sorted result run entering the k-way merge;
// the shard index lets the merge resolve duplicate _ids in favor of
// the owning shard.
type shardRun struct {
	shard int
	docs  []storage.Document
}

// runHeap is a min-heap of sorted runs keyed by each run's head _id —
// the streaming side of the k-way merge.
type runHeap struct {
	runs []shardRun
}

func (h *runHeap) Len() int { return len(h.runs) }
func (h *runHeap) Less(i, j int) bool {
	return h.runs[i].docs[0].ID() < h.runs[j].docs[0].ID()
}
func (h *runHeap) Swap(i, j int) { h.runs[i], h.runs[j] = h.runs[j], h.runs[i] }
func (h *runHeap) Push(x any)    { h.runs = append(h.runs, x.(shardRun)) }
func (h *runHeap) Pop() any      { n := len(h.runs); r := h.runs[n-1]; h.runs = h.runs[:n-1]; return r }

// mergeByID streams the k sorted runs into one _id-ordered slice,
// stopping at limit instead of materializing the full union. It
// de-duplicates equal _ids across runs — during a chunk migration the
// moving range transiently exists on both source and destination, and
// the merge must not surface both copies. When owner is non-nil,
// duplicates resolve to the copy from the shard that owns the key
// under the router's cached table: pre-flip that is the source (the
// authoritative copy; the destination's clone may lag), post-flip the
// destination (by then fully drained). Keeping whichever copy the
// heap pops first would arbitrarily surface stale clone data.
func mergeByID(runs []shardRun, limit int, owner func(string) int) []storage.Document {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		out := runs[0].docs
		if limit > 0 && len(out) > limit {
			out = out[:limit]
		}
		return dedupSorted(out)
	}
	h := &runHeap{runs: runs}
	heap.Init(h)
	total := 0
	for _, r := range runs {
		total += len(r.docs)
	}
	if limit > 0 && limit < total {
		total = limit
	}
	out := make([]storage.Document, 0, total)
	lastID := ""
	lastShard := -1
	// Keep draining duplicates of the last emitted _id even once the
	// limit is reached, so the owner's copy can still displace a stale
	// one that happened to pop first.
	for h.Len() > 0 && (limit <= 0 || len(out) < limit || h.runs[0].docs[0].ID() == lastID) {
		run := h.runs[0]
		d := run.docs[0]
		id := d.ID()
		switch {
		case len(out) == 0 || id != lastID:
			out = append(out, d)
			lastID, lastShard = id, run.shard
		case owner != nil && run.shard != lastShard && owner(id) == run.shard:
			out[len(out)-1] = d
			lastShard = run.shard
		}
		if len(run.docs) > 1 {
			h.runs[0].docs = run.docs[1:]
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out
}

// dedupSorted removes adjacent duplicate _ids from a sorted run.
func dedupSorted(docs []storage.Document) []storage.Document {
	for i := 1; i < len(docs); i++ {
		if docs[i].ID() == docs[i-1].ID() {
			out := append([]storage.Document(nil), docs[:i]...)
			for _, d := range docs[i:] {
				if d.ID() != out[len(out)-1].ID() {
					out = append(out, d)
				}
			}
			return out
		}
	}
	return docs
}
