package experiments

import (
	"testing"
	"time"

	"decongestant/internal/driver"
)

func TestCollectorWindows(t *testing.T) {
	c := NewCollector(10*time.Second, "")
	c.ObserveRead(1*time.Second, driver.Secondary, 5*time.Millisecond, "r")
	c.ObserveRead(9*time.Second, driver.Primary, 15*time.Millisecond, "r")
	c.ObserveRead(25*time.Second, driver.Primary, 30*time.Millisecond, "r")
	c.ObserveWrite(35*time.Second, time.Millisecond, "w") // writes open no window
	rows := c.Rows()
	if len(rows) != 3 {
		t.Fatalf("%d windows, want 3", len(rows))
	}
	if rows[0].Throughput != 0.2 || rows[1].Throughput != 0 || rows[2].Throughput != 0.1 {
		t.Fatalf("throughputs %v %v %v", rows[0].Throughput, rows[1].Throughput, rows[2].Throughput)
	}
	if rows[0].PctSecondary != 50 || rows[1].PctSecondary != 0 || rows[2].PctSecondary != 0 {
		t.Fatalf("secondary shares %v %v %v", rows[0].PctSecondary, rows[1].PctSecondary, rows[2].PctSecondary)
	}
	if rows[2].Start != 20*time.Second || rows[2].P80 != 30*time.Millisecond {
		t.Fatalf("last window starts %v with P80 %v", rows[2].Start, rows[2].P80)
	}
}

func TestCollectorKindFilter(t *testing.T) {
	c := NewCollector(time.Second, "StockLevel")
	c.ObserveRead(0, driver.Primary, time.Millisecond, "OrderStatus")
	c.ObserveRead(0, driver.Secondary, time.Millisecond, "StockLevel")
	if rows := c.Rows(); len(rows) != 1 || rows[0].Throughput != 1 || rows[0].PctSecondary != 100 {
		t.Fatalf("rows %+v, want one StockLevel read on a secondary", rows)
	}
}

func TestCollectorAggregateExcludesWarmup(t *testing.T) {
	c := NewCollector(time.Second, "")
	for i := 0; i < 20; i++ {
		pref := driver.Primary
		if i%2 == 0 {
			pref = driver.Secondary
		}
		c.ObserveRead(time.Duration(i)*time.Second, pref, time.Duration(i+1)*time.Millisecond, "r")
	}
	thr, p80, pct := c.Aggregate(10 * time.Second)
	if thr != 1 {
		t.Fatalf("throughput %v, want 1 read/s over the 10 steady windows", thr)
	}
	// The 8th of 11..20ms, rounded up to bucket resolution (~1.6%).
	if p80 < 18*time.Millisecond || p80 > 18300*time.Microsecond {
		t.Fatalf("P80 %v, want 18ms (a warm-up observation leaked in?)", p80)
	}
	if pct != 50 {
		t.Fatalf("secondary share %v, want 50", pct)
	}
}
