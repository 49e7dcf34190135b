package main

import (
	"testing"

	"decongestant/internal/core"
)

// TestFractionRisesUnderCongestion: the header's claim. From the
// initial Balance Fraction the controller climbs as the 150 readers
// congest the primary, and the measured share of secondary reads
// climbs with it.
func TestFractionRisesUnderCongestion(t *testing.T) {
	rows := run()
	initial := core.DefaultParams().LowBalPct
	first, last := rows[0], rows[len(rows)-1]
	if last.balancePct < 5*initial {
		t.Errorf("Balance Fraction ended at %d%%, want at least %d%% (5× the initial %d%%)", last.balancePct, 5*initial, initial)
	}
	if last.sharePct <= first.sharePct || last.sharePct < 50 {
		t.Errorf("secondary share went %.1f%% → %.1f%%, want a rise to at least 50%%", first.sharePct, last.sharePct)
	}
}
