// Package cluster implements a MongoDB-like replica set from scratch:
// a primary that applies writes and logs them to an oplog, secondaries
// that pull oplog batches via getMore requests serviced by the primary,
// per-node lastAppliedOpTime tracking gossiped through heartbeats and
// carried on each getMore, serverStatus with the same
// conservative-staleness error model the paper exploits (§2.3),
// WiredTiger-style periodic checkpoints that stall getMore servicing
// (producing the paper's gradual-rise/fast-drop staleness sawtooth,
// §4.5), and flow control that throttles writes under replication lag.
//
// Every node is modeled as a CPU resource with a fixed number of
// service slots; closed-loop clients queueing on those slots produce
// the congestion latencies Decongestant's feedback controller reads.
package cluster

import "time"

const (
	// batchMax is the maximum oplog entries per getMore batch.
	batchMax = 2000
	// checkpointSlowdown multiplies write/apply service times while a
	// checkpoint saturates the node's disk.
	checkpointSlowdown = 2.0
)

// Config describes a replica set deployment. The defaults approximate
// the paper's 3-node, equal-capacity cluster (§4.1.1) at a scale that
// saturates around 50-100 closed-loop clients, matching Figure 5's
// knee.
type Config struct {
	// Nodes is the replica set size (including the primary).
	Nodes int
	// Zones assigns an availability zone per node (cycled if shorter).
	Zones []string
	// ClientZone is the zone client systems run in.
	ClientZone string

	// CPUSlots is the number of concurrent operations a node services.
	CPUSlots int
	// ReadCost is the service time of one read work unit.
	ReadCost time.Duration
	// WriteCost is the service time of one write operation at the
	// primary (document apply + oplog append + journal).
	WriteCost time.Duration
	// ApplyCost is the service time of applying one oplog entry on a
	// secondary.
	ApplyCost time.Duration
	// StatusCost is the service time of a serverStatus command.
	StatusCost time.Duration
	// GetMoreCost is the primary-side service time of one oplog
	// getMore request.
	GetMoreCost time.Duration
	// CostJitter is the +/- uniform fraction applied to service times.
	// Negative means exactly zero jitter (zero takes the default).
	CostJitter float64

	// ReplIdlePoll bounds how long an awaitData getMore waits at the
	// primary for the next append before it returns empty; with
	// DisableTailWake it is the secondary's sleep between polls of an
	// empty oplog tail.
	ReplIdlePoll time.Duration
	// HeartbeatInterval is how often every node gossips its
	// lastApplied OpTime to all others.
	HeartbeatInterval time.Duration
	// NoopInterval is how often an idle primary writes a no-op oplog
	// entry (keeps staleness well-defined on idle systems).
	NoopInterval time.Duration

	// CheckpointInterval is the WiredTiger-style checkpoint period.
	CheckpointInterval time.Duration
	// CheckpointMinDuration, CheckpointPerMB, CheckpointMaxDuration
	// size a checkpoint: duration = min + dirtyMB*perMB, capped. Dirty
	// volume is measured in payload bytes, so document-heavy workloads
	// (TPC-C orders) checkpoint longer than small-value ones (YCSB) at
	// the same op rate — matching the paper's observations.
	CheckpointMinDuration time.Duration
	CheckpointPerMB       time.Duration
	CheckpointMaxDuration time.Duration

	// FlowControlLagSecs enables write throttling when the primary's
	// known replication lag reaches this many seconds (0 disables).
	FlowControlLagSecs int64
	// FlowControlDelay is the per-write stall added when throttling.
	FlowControlDelay time.Duration

	// RTTSameZone and RTTCrossZoneBase set network round-trip times;
	// each cross-zone pair gets a deterministic extra offset below
	// RTTCrossZoneSpread so zones differ, as on EC2 (§3.3.1).
	RTTSameZone        time.Duration
	RTTCrossZoneBase   time.Duration
	RTTCrossZoneSpread time.Duration
	// RTTJitter is the +/- uniform fraction applied to each traversal.
	// Negative means exactly zero jitter (zero takes the default).
	RTTJitter float64

	// OplogCap bounds retained oplog entries (0 = unbounded).
	OplogCap int
	// OplogHardCap bounds the primary's oplog even against live-but-
	// slow (or down) fetchers: when retention for the slowest member
	// would exceed this many entries, the oldest are dropped anyway and
	// the lagging member resyncs from a snapshot instead of the log.
	// Zero takes 2x OplogCap; negative disables the hard cap.
	OplogHardCap int

	// DisableTailWake reverts secondaries to pure sleep-polling of the
	// primary's oplog tail: the primary answers an empty getMore at
	// once instead of waiting for the next append, and the secondary
	// sleeps ReplIdlePoll before it asks again. Used by tests that
	// assert poll-driven replication timing.
	DisableTailWake bool

	// LinearizableLeases enables the lease subsystem: a leader lease
	// held by the primary (renewed piggybacked on heartbeats) and
	// per-secondary read leases that let a caught-up secondary serve
	// linearizable reads locally. Off by default — the unleased read
	// and write paths are byte-identical to the pre-lease engine.
	LinearizableLeases bool
	// LeaseDuration is how long a granted lease remains valid on the
	// holder's local clock. Zero takes 4x HeartbeatInterval, so a
	// holder survives a few missed renewals before falling back.
	LeaseDuration time.Duration
	// LeaseGuardBand is the clock-skew safety margin: holders stop
	// serving this long before their lease's nominal expiry, and a
	// failover drain waits this long past the last computed expiry
	// before the new epoch's leases may be granted. Zero takes
	// LeaseDuration/8.
	LeaseGuardBand time.Duration
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Nodes:      3,
		Zones:      []string{"ap-southeast-2a", "ap-southeast-2b", "ap-southeast-2c"},
		ClientZone: "ap-southeast-2a",

		CPUSlots:    8,
		ReadCost:    900 * time.Microsecond,
		WriteCost:   1800 * time.Microsecond,
		ApplyCost:   200 * time.Microsecond,
		StatusCost:  150 * time.Microsecond,
		GetMoreCost: 300 * time.Microsecond,
		CostJitter:  0.25,

		ReplIdlePoll:      50 * time.Millisecond,
		HeartbeatInterval: 500 * time.Millisecond,
		NoopInterval:      10 * time.Second,

		CheckpointInterval:    60 * time.Second,
		CheckpointMinDuration: 500 * time.Millisecond,
		CheckpointPerMB:       250 * time.Millisecond,
		CheckpointMaxDuration: 30 * time.Second,

		FlowControlLagSecs: 15,
		FlowControlDelay:   2 * time.Millisecond,

		RTTSameZone:        250 * time.Microsecond,
		RTTCrossZoneBase:   700 * time.Microsecond,
		RTTCrossZoneSpread: 600 * time.Microsecond,
		RTTJitter:          0.15,

		OplogCap: 500_000,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Nodes == 0 {
		c.Nodes = d.Nodes
	}
	if len(c.Zones) == 0 {
		c.Zones = d.Zones
	}
	if c.ClientZone == "" {
		c.ClientZone = d.ClientZone
	}
	if c.CPUSlots == 0 {
		c.CPUSlots = d.CPUSlots
	}
	if c.ReadCost == 0 {
		c.ReadCost = d.ReadCost
	}
	if c.WriteCost == 0 {
		c.WriteCost = d.WriteCost
	}
	if c.ApplyCost == 0 {
		c.ApplyCost = d.ApplyCost
	}
	if c.StatusCost == 0 {
		c.StatusCost = d.StatusCost
	}
	if c.GetMoreCost == 0 {
		c.GetMoreCost = d.GetMoreCost
	}
	if c.CostJitter == 0 {
		c.CostJitter = d.CostJitter
	} else if c.CostJitter < 0 {
		c.CostJitter = 0
	}
	if c.ReplIdlePoll == 0 {
		c.ReplIdlePoll = d.ReplIdlePoll
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = d.HeartbeatInterval
	}
	if c.NoopInterval == 0 {
		c.NoopInterval = d.NoopInterval
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = d.CheckpointInterval
	}
	if c.CheckpointMinDuration == 0 {
		c.CheckpointMinDuration = d.CheckpointMinDuration
	}
	if c.CheckpointPerMB == 0 {
		c.CheckpointPerMB = d.CheckpointPerMB
	}
	if c.CheckpointMaxDuration == 0 {
		c.CheckpointMaxDuration = d.CheckpointMaxDuration
	}
	if c.FlowControlDelay == 0 {
		c.FlowControlDelay = d.FlowControlDelay
	}
	if c.RTTSameZone == 0 {
		c.RTTSameZone = d.RTTSameZone
	}
	if c.RTTCrossZoneBase == 0 {
		c.RTTCrossZoneBase = d.RTTCrossZoneBase
	}
	if c.RTTCrossZoneSpread == 0 {
		c.RTTCrossZoneSpread = d.RTTCrossZoneSpread
	}
	if c.RTTJitter == 0 {
		c.RTTJitter = d.RTTJitter
	} else if c.RTTJitter < 0 {
		c.RTTJitter = 0
	}
	if c.LeaseDuration == 0 {
		c.LeaseDuration = 4 * c.HeartbeatInterval
	}
	if c.LeaseGuardBand == 0 {
		c.LeaseGuardBand = c.LeaseDuration / 8
	}
	if c.OplogHardCap == 0 {
		c.OplogHardCap = 2 * c.OplogCap // 0 stays 0 (unbounded) when OplogCap is unbounded
	} else if c.OplogHardCap < 0 {
		c.OplogHardCap = 0
	}
	return c
}
