package sharding

import (
	"fmt"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// MigrateOptions tunes a chunk migration.
type MigrateOptions struct {
	// Collections to clone; defaults to every collection the router
	// has seen traffic for.
	Collections []string
	// BatchSize bounds documents per destination write transaction
	// (default 128).
	BatchSize int
	// CatchupRounds bounds oplog catch-up iterations before the
	// migration freezes writes regardless of remaining lag (default
	// 1000); the final drain is separately bounded by the oplog
	// position captured at freeze time.
	CatchupRounds int
	// SecondaryWait bounds how long the hand-off waits for the
	// destination's secondaries to replicate the cloned range before
	// flipping ownership (default 10s).
	SecondaryWait time.Duration
}

func (o *MigrateOptions) defaults(r *Router) {
	if len(o.Collections) == 0 {
		o.Collections = r.seenCollections()
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 128
	}
	if o.CatchupRounds <= 0 {
		o.CatchupRounds = 1000
	}
	if o.SecondaryWait <= 0 {
		o.SecondaryWait = 10 * time.Second
	}
}

// catchupThreshold: once an oplog round returns fewer entries than
// this, the source is close enough to freeze writes and finish.
const catchupThreshold = 64

// maxResyncs bounds full-clone restarts after oplog truncation gaps.
const maxResyncs = 3

// SplitChunk splits the chunk containing key at key. Ownership does
// not change, so the split is invisible to in-flight traffic.
func (r *Router) SplitChunk(key string) error {
	if err := r.auth.Split(key); err != nil {
		return err
	}
	r.refreshMap()
	return nil
}

// MigrateChunk live-migrates the chunk containing key to shard `to`
// while traffic continues:
//
//  1. snapshot-clone the range from the source primary to the
//     destination (batched upserts),
//  2. tail the source oplog and replay writes to the range until the
//     destination has nearly caught up (a truncation gap forces a
//     full resync, counted by sharding.migration_resyncs),
//  3. freeze writes to the range (reads never freeze), drain the last
//     oplog entries, wait for the destination's secondaries to
//     replicate the clone,
//  4. flip ownership in the authority's table (version+1) — blocked
//     writers revalidate, fail stale, and reroute to the destination;
//     routers with cached maps learn the same way,
//  5. wait for reads planned against the old table to finish, then
//     delete the source copy.
//
// The source keeps a complete copy of the range until step 5, so
// reads are served correctly throughout. A migration that fails
// before the flip purges the destination's partial clone before
// releasing the migration slot, so no orphan documents survive an
// abort; each clone attempt likewise purges the destination's range
// first (a resync's stale snapshot could otherwise resurrect
// documents deleted on the source between attempts).
func (r *Router) MigrateChunk(p sim.Proc, key string, to int, opts MigrateOptions) error {
	if to < 0 || to >= len(r.conns) {
		return fmt.Errorf("sharding: no shard %d", to)
	}
	opts.defaults(r)
	if len(opts.Collections) == 0 {
		return fmt.Errorf("sharding: no collections to migrate (none seen; set MigrateOptions.Collections)")
	}

	r.migMu.Lock()
	defer r.migMu.Unlock()

	ck, err := r.auth.beginMigration(key, to)
	if err != nil {
		return err
	}
	src, dst := r.conns[ck.Shard], r.conns[to]
	tailer, ok := src.(driver.OplogTailer)
	if !ok {
		r.auth.abortMigration()
		return fmt.Errorf("sharding: source shard %d connection cannot tail the oplog", ck.Shard)
	}

	committed, err := r.runMigration(p, ck, to, src, dst, tailer, opts)
	if err != nil {
		if !committed {
			// The destination holds a partial clone of a range it does
			// not own; purge it before releasing the migration slot so
			// scatter reads and a later retry never see orphans.
			if perr := r.deleteRange(p, ck, dst, opts); perr != nil {
				err = fmt.Errorf("%w (orphan purge on destination shard %d also failed: %v)", err, to, perr)
			}
			r.auth.abortMigration()
		}
		return err
	}
	// The destination owns the range now; cached copies of its
	// documents were filled under the old owner and table version.
	r.invalidateChunk(ck, opts.Collections)
	r.migrationsDone.Inc(1)
	return nil
}

// runMigration drives the protocol. committed reports whether the
// ownership flip was published: once true the destination is the
// owner and the caller must not purge it or abort the (already
// released) migration slot, even if source cleanup failed.
func (r *Router) runMigration(p sim.Proc, ck Chunk, to int, src, dst driver.Conn, tailer driver.OplogTailer, opts MigrateOptions) (committed bool, err error) {
	collSet := make(map[string]bool, len(opts.Collections))
	for _, c := range opts.Collections {
		collSet[c] = true
	}

	var cursor oplog.OpTime
	for resync := 0; ; resync++ {
		if resync > maxResyncs {
			return false, fmt.Errorf("sharding: migration of %s gave up after %d oplog resyncs", ck, maxResyncs)
		}
		if resync > 0 {
			r.migrationResyncs.Inc(1)
		}
		// Purge any copy of the range already on the destination —
		// orphans from an aborted earlier attempt, or the previous
		// snapshot on a truncation resync. The fresh replay cursor
		// starts at "now", so a document deleted on the source since
		// the stale clone would be neither in the new snapshot nor
		// replayed as a delete; cloning over the stale copy would
		// resurrect it after the ownership flip.
		if err := r.deleteRange(p, ck, dst, opts); err != nil {
			return false, err
		}
		// The replay cursor is captured before the snapshot reads, so
		// every write racing the clone is replayed; re-applying
		// entries the snapshot already contains is idempotent (the
		// full suffix replays in order).
		_, applied, _, err := tailer.OplogTail(p, oplog.OpTime{Secs: 1 << 60}, 1)
		if err != nil {
			return false, fmt.Errorf("sharding: migration cursor: %w", err)
		}
		cursor = applied
		if err := r.cloneRange(p, ck, src, dst, opts); err != nil {
			return false, err
		}
		gap, cur, err := r.catchUp(p, ck, collSet, dst, tailer, cursor, opts, nil)
		if err != nil {
			return false, err
		}
		if gap {
			continue // oplog truncated under us: full resync
		}
		cursor = cur
		break
	}

	// Hand-off: stop writes to the range, drain the tail through the
	// freeze point, and make sure the destination's secondaries hold
	// the clone before reads can be routed there.
	r.auth.freezeWrites(p, ck)
	// Writes to the range are now frozen and drained, so every
	// relevant oplog entry sits at or before the primary's applied
	// optime right now. Capturing it bounds the final drain: sustained
	// writes to other chunks on the same source shard keep appending
	// to the shared oplog forever, so "a round came back empty" alone
	// may never hold.
	_, frozenEnd, _, err := tailer.OplogTail(p, oplog.OpTime{Secs: 1 << 60}, 1)
	if err != nil {
		return false, fmt.Errorf("sharding: freeze point: %w", err)
	}
	if _, _, err := r.catchUp(p, ck, collSet, dst, tailer, cursor, opts, &frozenEnd); err != nil {
		return false, err
	}
	r.waitSecondaries(p, dst, opts.SecondaryWait)
	r.auth.commitMove(ck, to)
	r.refreshMap()

	// Reads planned against the old table may still be running on the
	// source; only after they finish is the source copy deletable.
	r.auth.drainReaders(p, ck, ck.Shard)
	return true, r.deleteRange(p, ck, src, opts)
}

// cloneRange snapshot-copies every document of the chunk's range from
// the source primary into the destination, batched.
func (r *Router) cloneRange(p sim.Proc, ck Chunk, src, dst driver.Conn, opts MigrateOptions) error {
	for _, coll := range opts.Collections {
		res, err := src.ExecRead(p, src.PrimaryID(), func(v cluster.ReadView) (any, error) {
			return v.Find(coll, rangeFilter(ck), 0), nil
		})
		if err != nil {
			return fmt.Errorf("sharding: clone read %s: %w", coll, err)
		}
		docs := clipToChunk(res.([]storage.Document), ck)
		for len(docs) > 0 {
			n := opts.BatchSize
			if n > len(docs) {
				n = len(docs)
			}
			batch := docs[:n]
			docs = docs[n:]
			_, err := dst.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
				for _, d := range batch {
					if err := tx.Set(coll, d.ID(), d); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if err != nil {
				return fmt.Errorf("sharding: clone write %s: %w", coll, err)
			}
		}
	}
	return nil
}

// catchUp replays source-oplog writes to the chunk's range onto the
// destination, starting after cursor. With drainTo set it drains the
// frozen tail: writes to the range are frozen and drained, so every
// relevant entry is at or before drainTo (the primary's applied
// optime captured after the freeze) — the drain ends once the cursor
// reaches drainTo or a round comes back empty, bounded by the oplog
// length at freeze time no matter how fast other chunks keep writing.
// Without drainTo it stops once a round returns fewer than
// catchupThreshold entries or the round budget runs out. It reports a
// truncation gap (the log no longer reaches back to the cursor), the
// advanced cursor, and any replay error; a gap during the frozen
// drain is an error — resyncing would require unfreezing, so the
// migration fails instead of holding writes indefinitely.
func (r *Router) catchUp(p sim.Proc, ck Chunk, colls map[string]bool, dst driver.Conn, tailer driver.OplogTailer, cursor oplog.OpTime, opts MigrateOptions, drainTo *oplog.OpTime) (bool, oplog.OpTime, error) {
	for round := 0; ; round++ {
		entries, _, trunc, err := tailer.OplogTail(p, cursor, 1024)
		if err != nil {
			return false, cursor, fmt.Errorf("sharding: oplog tail: %w", err)
		}
		if cursor.Before(trunc) {
			if drainTo != nil {
				return false, cursor, fmt.Errorf("sharding: source oplog truncated past the drain cursor while writes were frozen")
			}
			return true, cursor, nil
		}
		if err := r.replay(p, ck, colls, dst, entries, opts.BatchSize); err != nil {
			return false, cursor, err
		}
		if len(entries) > 0 {
			cursor = entries[len(entries)-1].TS
		}
		if drainTo != nil {
			if len(entries) == 0 || !cursor.Before(*drainTo) {
				return false, cursor, nil
			}
			continue
		}
		if len(entries) < catchupThreshold || round >= opts.CatchupRounds {
			return false, cursor, nil
		}
	}
}

// replay applies the relevant slice of oplog entries — the migrated
// collections, keys inside the chunk — to the destination in order.
func (r *Router) replay(p sim.Proc, ck Chunk, colls map[string]bool, dst driver.Conn, entries []oplog.DecodedEntry, batchSize int) error {
	relevant := entries[:0:0]
	for _, e := range entries {
		if e.Kind == oplog.KindNoop || !colls[e.Collection] || !ck.Contains(e.DocID) {
			continue
		}
		relevant = append(relevant, e)
	}
	for len(relevant) > 0 {
		n := batchSize
		if n > len(relevant) {
			n = len(relevant)
		}
		batch := relevant[:n]
		relevant = relevant[n:]
		_, err := dst.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
			for _, e := range batch {
				var err error
				switch e.Kind {
				case oplog.KindInsert, oplog.KindSet:
					err = tx.Set(e.Collection, e.DocID, e.Doc)
				case oplog.KindDelete:
					err = tx.Delete(e.Collection, e.DocID)
				}
				if err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
		if err != nil {
			return fmt.Errorf("sharding: oplog replay: %w", err)
		}
	}
	return nil
}

// waitSecondaries polls the destination's replica-set status until
// every member has applied the primary's optime (bounded by the
// deadline) so post-flip secondary reads observe the cloned range.
func (r *Router) waitSecondaries(p sim.Proc, dst driver.Conn, wait time.Duration) {
	deadline := r.env.Now() + wait
	for r.env.Now() < deadline {
		st := dst.ServerStatus(p, dst.PrimaryID())
		var target oplog.OpTime
		for _, m := range st.Members {
			if m.Primary {
				target = m.Applied
			}
		}
		caughtUp := len(st.Members) > 0
		for _, m := range st.Members {
			if m.Applied.Before(target) {
				caughtUp = false
				break
			}
		}
		if caughtUp {
			return
		}
		p.Sleep(2 * time.Millisecond)
	}
}

// deleteRange removes the chunk's range from the given shard — the
// source copy after a committed hand-off, or the destination's
// partial clone before a (re)clone and on abort.
func (r *Router) deleteRange(p sim.Proc, ck Chunk, conn driver.Conn, opts MigrateOptions) error {
	for _, coll := range opts.Collections {
		res, err := conn.ExecRead(p, conn.PrimaryID(), func(v cluster.ReadView) (any, error) {
			return v.Find(coll, rangeFilter(ck), 0), nil
		})
		if err != nil {
			return fmt.Errorf("sharding: cleanup read %s: %w", coll, err)
		}
		ids := make([]string, 0)
		for _, d := range clipToChunk(res.([]storage.Document), ck) {
			ids = append(ids, d.ID())
		}
		for len(ids) > 0 {
			n := opts.BatchSize
			if n > len(ids) {
				n = len(ids)
			}
			batch := ids[:n]
			ids = ids[n:]
			_, err := conn.ExecWrite(p, func(tx cluster.WriteTxn) (any, error) {
				for _, id := range batch {
					if err := tx.Delete(coll, id); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if err != nil {
				return fmt.Errorf("sharding: cleanup write %s: %w", coll, err)
			}
		}
	}
	return nil
}

// rangeFilter selects documents at or above the chunk's lower bound.
// Filters carry one condition per field, so the upper bound is
// enforced client-side by clipToChunk.
func rangeFilter(ck Chunk) storage.Filter {
	if ck.Min == "" {
		return nil
	}
	return storage.Filter{"_id": storage.Gte(ck.Min)}
}

// clipToChunk drops documents at or above the chunk's upper bound.
func clipToChunk(docs []storage.Document, ck Chunk) []storage.Document {
	if ck.Max == "" {
		return docs
	}
	out := docs[:0:0]
	for _, d := range docs {
		if d.ID() < ck.Max {
			out = append(out, d)
		}
	}
	return out
}
