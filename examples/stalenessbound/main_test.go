package main

import (
	"testing"
	"time"
)

// TestGateTripsAndHoldsP80: what the header claims. Checkpoints push
// the staleness estimate past the bound, the gate trips and holds the
// Balance Fraction at 0 while it is shut, and the observed P80 stays
// under the bound. The observed maximum is not asserted: at a 1 s
// poll a few probes land before the gate shuts, as the header says.
func TestGateTripsAndHoldsP80(t *testing.T) {
	r := run()
	if r.gateTrips < 1 {
		t.Fatalf("gate tripped %d times, want at least once", r.gateTrips)
	}
	gatedRows := 0
	for _, w := range r.rows {
		if w.gated {
			gatedRows++
			if w.balancePct != 0 {
				t.Errorf("gated at %v with Balance Fraction %d%%, want 0", w.t, w.balancePct)
			}
		}
	}
	if gatedRows == 0 {
		t.Error("no printed row shows the gate shut")
	}
	bound := time.Duration(r.bound) * time.Second
	if r.probes == 0 || r.p80 >= bound {
		t.Errorf("observed P80 %v over %d probes, want probes and a P80 under the %v bound", r.p80, r.probes, bound)
	}
	t.Logf("observed max %v against the %v bound, %d gate trips", r.max, bound, r.gateTrips)
}
