package cluster

import "decongestant/internal/storage"

// NodeStore returns member id's current store, for tests outside the
// package that compare members' data directly.
func (rs *ReplicaSet) NodeStore(id int) *storage.Store {
	n := rs.nodes[id]
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.store
}
