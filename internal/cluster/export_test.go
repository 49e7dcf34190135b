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

// OplogBytes bounds the memory member id's oplog holds: a slot and a
// payload per entry, plus a partly used segment at each end and two
// spare segments (oplog.Log's segments hold 1,024 slots).
func (rs *ReplicaSet) OplogBytes(id int) int64 {
	n := rs.nodes[id]
	n.mu.RLock()
	entries := n.log.ScanAfter(oplog.Zero, 0)
	n.mu.RUnlock()
	slot := int64(unsafe.Sizeof(oplog.Entry{}))
	total := int64(len(entries)+4*1024) * slot
	for _, e := range entries {
		total += int64(cap(e.Payload))
	}
	return total
}
