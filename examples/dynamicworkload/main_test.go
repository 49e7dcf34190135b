package main

import (
	"testing"
	"time"
)

// TestDecongestantShareRisesAcrossSwitch: the header's claim, on the
// Decongestant arm over half the horizon (switch at 60 s, end at
// 120 s). Under YCSB-A the controller keeps most reads on the primary;
// once the read-heavy YCSB-B congests it, the share of secondary reads
// rises well above its last pre-switch value.
func TestDecongestantShareRisesAcrossSwitch(t *testing.T) {
	const switchAt, end = 60 * time.Second, 120 * time.Second
	rows := run(decongestant, switchAt, end)
	var before window
	for _, w := range rows {
		if w.t == switchAt {
			before = w
		}
	}
	last := rows[len(rows)-1]
	if before.reads == 0 || last.sharePct() < 50 || last.sharePct() <= before.sharePct() {
		t.Fatalf("secondary share %.1f%% before the switch and %.1f%% at %v, want a rise to at least 50%%",
			before.sharePct(), last.sharePct(), last.t)
	}
}
