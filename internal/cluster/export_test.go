package cluster

import (
	"bytes"
	"fmt"
	"unsafe"

	"decongestant/internal/oplog"
	"decongestant/internal/storage"
)

// NodeStore returns member id's current store, for tests outside the
// package that compare members' data directly.
func (rs *ReplicaSet) NodeStore(id int) *storage.Store {
	n := rs.nodes[id]
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.store
}

// Restamp replaces member id's version of document docID in coll with
// a copy of its bytes under a fresh local stamp: the member then holds
// the same document as before, but not a version any primary replaced.
func (rs *ReplicaSet) Restamp(id int, coll, docID string) error {
	n := rs.nodes[id]
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	c := rs.NodeStore(id).C(coll)
	e, ok := c.FindByIDEncoded(docID)
	if !ok {
		return fmt.Errorf("member %d holds no %s/%s", id, coll, docID)
	}
	_, err := c.ApplyBatch([]storage.ApplyOp{{Kind: storage.ApplyUpsert, Enc: bytes.Clone(e.Bytes())}})
	return err
}

// OplogEntries returns the entries member id's oplog holds, oldest
// first: the log's own, shared entries.
func (rs *ReplicaSet) OplogEntries(id int) []*oplog.Entry {
	n := rs.nodes[id]
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.log.ScanAfter(nil, oplog.Zero, 0)
}

// TruncateOplog keeps the newest keep entries of member id's oplog, as
// its cap does, and returns how many it dropped.
func (rs *ReplicaSet) TruncateOplog(id, keep int) int {
	n := rs.nodes[id]
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.log.TruncateToLast(keep)
}

// OplogBytes bounds the memory the members' oplogs hold together: per
// member, a pointer slot per entry plus a partly used segment at each
// end and two spare segments (oplog.Log's segments hold 1,024 slots);
// and each distinct entry with its payload once, however many members
// log it.
func (rs *ReplicaSet) OplogBytes() int64 {
	const slot = int64(unsafe.Sizeof((*oplog.Entry)(nil)))
	const entry = int64(unsafe.Sizeof(oplog.Entry{}))
	seen := map[*oplog.Entry]bool{}
	var total int64
	for id := range rs.nodes {
		entries := rs.OplogEntries(id)
		total += int64(len(entries)+4*1024) * slot
		for _, e := range entries {
			if !seen[e] {
				seen[e] = true
				total += entry + int64(cap(e.Payload))
			}
		}
	}
	return total
}
