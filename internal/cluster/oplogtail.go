package cluster

import (
	"decongestant/internal/oplog"
	"decongestant/internal/sim"
)

// OplogTail scans the primary's oplog for entries strictly after the
// given OpTime, decoded and in TS order, up to max of them. Alongside
// the batch it reports the primary's lastApplied at scan time (so the
// caller can tell "caught up" from "nothing new yet") and the log's
// truncation horizon: when `after` predates it the log no longer holds
// every entry the caller missed, and an incremental tail is impossible —
// resync from a snapshot instead, exactly like a secondary that fell
// off the end of the oplog.
//
// This is the feed for cross-replica-set consumers — chunk migration
// drains a shard's writes through it — so unlike the internal
// replication pull it charges a network round trip and a status-priced
// CPU slice at the primary.
func (rs *ReplicaSet) OplogTail(p sim.Proc, after oplog.OpTime, max int) ([]oplog.DecodedEntry, oplog.OpTime, oplog.OpTime, error) {
	n := rs.Primary()
	rs.net.Travel(p, rs.cfg.ClientZone, n.Zone)
	if n.Down() {
		rs.net.Travel(p, n.Zone, rs.cfg.ClientZone)
		return nil, oplog.Zero, oplog.Zero, ErrNodeDown
	}
	n.cpu.Acquire(p)
	p.Sleep(n.jitterCost(rs.cfg.StatusCost))
	n.mu.RLock()
	entries := n.log.ScanAfter(nil, after, max)
	applied := n.lastApplied
	trunc := n.log.TruncatedTo()
	n.mu.RUnlock()
	n.cpu.Release()
	rs.net.Travel(p, n.Zone, rs.cfg.ClientZone)
	decoded, _, err := oplog.DecodeBatch(entries)
	if err != nil {
		return nil, oplog.Zero, oplog.Zero, err
	}
	return decoded, applied, trunc, nil
}
