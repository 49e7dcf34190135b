package main

import (
	"testing"

	"decongestant/internal/core"
)

// TestOnlyHotShardClimbs: the header's claim. The shard that owns the
// hot key raises its Balance Fraction, and the shard that serves two
// light clients never moves above the initial one.
func TestOnlyHotShardClimbs(t *testing.T) {
	r := run()
	if r.hotShard != 0 || r.coldShard != 1 {
		t.Fatalf("hot key on shard %d and cold key on shard %d, want 0 and 1", r.hotShard, r.coldShard)
	}
	initial := core.DefaultParams().LowBalPct
	if last := r.rows[len(r.rows)-1].fractions[0]; last < 5*initial {
		t.Errorf("hot shard's fraction ended at %d%%, want at least %d%%", last, 5*initial)
	}
	for _, w := range r.rows {
		if w.fractions[1] > initial {
			t.Errorf("cold shard's fraction is %d%% at %v, want at most the initial %d%%", w.fractions[1], w.t, initial)
		}
	}
}
