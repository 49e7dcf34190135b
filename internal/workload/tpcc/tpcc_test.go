package tpcc

import (
	"fmt"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/workload"
)

// tinyScale keeps load times negligible in unit tests.
func tinyScale() Scale {
	return Scale{
		Warehouses:               2,
		DistrictsPerWH:           3,
		CustomersPerDistrict:     20,
		Items:                    100,
		InitialOrdersPerDistrict: 30,
		UndeliveredFraction:      0.3,
	}
}

func newTestCluster(t *testing.T, seed int64, sc Scale) (*sim.VirtualEnv, *cluster.ReplicaSet, *driver.Client) {
	t.Helper()
	env := sim.NewEnv(seed)
	cfg := cluster.DefaultConfig()
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	rs := cluster.New(env, cfg)
	if err := Load(rs, sc, 42); err != nil {
		t.Fatal(err)
	}
	return env, rs, driver.NewClient(env, driver.WrapCluster(rs))
}

func TestMixesMatchTable1(t *testing.T) {
	std, rw := StandardMix(), ReadWriteMix()
	if std.Total() != 100 || rw.Total() != 100 {
		t.Fatalf("totals %d %d", std.Total(), rw.Total())
	}
	if std.StockLevel != 4 || std.Payment != 43 || std.NewOrder != 45 {
		t.Fatalf("standard mix wrong: %+v", std)
	}
	if rw.StockLevel != 50 || rw.Payment != 20 || rw.NewOrder != 22 {
		t.Fatalf("read-write mix wrong: %+v", rw)
	}
	if std.Delivery != rw.Delivery || std.OrderStatus != rw.OrderStatus {
		t.Fatal("Delivery/OrderStatus shares should match across mixes")
	}
}

func TestLoadPopulation(t *testing.T) {
	sc := tinyScale()
	env, rs, cl := newTestCluster(t, 1, sc)
	defer env.Shutdown()
	var counts map[string]int
	env.Spawn("counter", func(p sim.Proc) {
		res, err := cl.Conn().ExecRead(p, rs.PrimaryID(), func(v cluster.ReadView) (any, error) {
			out := map[string]int{}
			out["wh"] = v.Count(CollWarehouse, storage.Filter{})
			out["district"] = v.Count(CollDistrict, storage.Filter{})
			out["customer"] = v.Count(CollCustomer, storage.Filter{})
			out["item"] = v.Count(CollItem, storage.Filter{})
			out["stock"] = v.Count(CollStock, storage.Filter{})
			out["orders"] = v.Count(CollOrders, storage.Filter{})
			out["new_orders"] = v.Count(CollNewOrders, storage.Filter{})
			return out, nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		counts = res.(map[string]int)
	})
	env.Run(5 * time.Second)
	want := map[string]int{
		"wh":         sc.Warehouses,
		"district":   sc.Warehouses * sc.DistrictsPerWH,
		"customer":   sc.Warehouses * sc.DistrictsPerWH * sc.CustomersPerDistrict,
		"item":       sc.Items,
		"stock":      sc.Warehouses * sc.Items,
		"orders":     sc.Warehouses * sc.DistrictsPerWH * sc.InitialOrdersPerDistrict,
		"new_orders": sc.Warehouses * sc.DistrictsPerWH * 9, // 30% of 30
	}
	for k, w := range want {
		if counts[k] != w {
			t.Errorf("%s: %d, want %d", k, counts[k], w)
		}
	}
}

func TestNewOrderAdvancesDistrictAndInsertsOrder(t *testing.T) {
	sc := tinyScale()
	env, rs, cl := newTestCluster(t, 2, sc)
	defer env.Shutdown()
	exec := workload.FixedPref{Client: cl, Pref: driver.Primary}
	env.Spawn("terminal", func(p sim.Proc) {
		rng := env.NewRand("no-test")
		for i := 0; i < 30; i++ {
			if _, err := NewOrder(p, exec, sc, rng); err != nil {
				t.Errorf("NewOrder: %v", err)
				return
			}
		}
	})
	env.Run(time.Minute)
	var totalNext, orders int
	env.Spawn("check", func(p sim.Proc) {
		cl.Conn().ExecRead(p, rs.PrimaryID(), func(v cluster.ReadView) (any, error) {
			for w := 1; w <= sc.Warehouses; w++ {
				for d := 1; d <= sc.DistrictsPerWH; d++ {
					doc, _ := v.FindByID(CollDistrict, DistrictID(w, d))
					totalNext += int(doc.Int("next_o_id"))
				}
			}
			orders = v.Count(CollOrders, storage.Filter{})
			return nil, nil
		})
	})
	env.Run(2 * time.Minute)
	districts := sc.Warehouses * sc.DistrictsPerWH
	advance := totalNext - districts*(sc.InitialOrdersPerDistrict+1)
	added := orders - districts*sc.InitialOrdersPerDistrict
	// Intentional rollbacks (~1%) discard the whole transaction, so
	// the district advance must equal the committed order count.
	if advance != added {
		t.Errorf("next_o_id advanced %d but %d orders committed", advance, added)
	}
	if added < 25 || added > 30 {
		t.Errorf("committed orders %d, want close to 30", added)
	}
}

func TestPaymentUpdatesBalances(t *testing.T) {
	sc := tinyScale()
	env, rs, cl := newTestCluster(t, 3, sc)
	defer env.Shutdown()
	exec := workload.FixedPref{Client: cl, Pref: driver.Primary}
	env.Spawn("terminal", func(p sim.Proc) {
		rng := env.NewRand("pay-test")
		for i := 0; i < 20; i++ {
			if _, err := Payment(p, exec, sc, rng); err != nil {
				t.Errorf("Payment: %v", err)
			}
		}
	})
	env.Run(time.Minute)
	var ytd float64
	var histCount int
	env.Spawn("check", func(p sim.Proc) {
		cl.Conn().ExecRead(p, rs.PrimaryID(), func(v cluster.ReadView) (any, error) {
			for w := 1; w <= sc.Warehouses; w++ {
				doc, _ := v.FindByID(CollWarehouse, WarehouseID(w))
				ytd += doc.Float("ytd")
			}
			histCount = v.Count(CollHistory, storage.Filter{})
			return nil, nil
		})
	})
	env.Run(2 * time.Minute)
	base := float64(sc.Warehouses) * 300000
	if ytd <= base {
		t.Errorf("warehouse ytd did not grow: %v vs base %v", ytd, base)
	}
	if histCount != 20 {
		t.Errorf("history count %d, want 20", histCount)
	}
}

func TestOrderStatusReturnsLastOrder(t *testing.T) {
	sc := tinyScale()
	env, _, cl := newTestCluster(t, 4, sc)
	defer env.Shutdown()
	exec := workload.FixedPref{Client: cl, Pref: driver.Primary}
	env.Spawn("terminal", func(p sim.Proc) {
		rng := env.NewRand("os-test")
		for i := 0; i < 20; i++ {
			if _, _, err := OrderStatus(p, exec, sc, rng); err != nil {
				t.Errorf("OrderStatus: %v", err)
			}
		}
	})
	env.Run(time.Minute)
}

func TestDeliveryDrainsNewOrders(t *testing.T) {
	sc := tinyScale()
	env, rs, cl := newTestCluster(t, 5, sc)
	defer env.Shutdown()
	exec := workload.FixedPref{Client: cl, Pref: driver.Primary}
	before := sc.Warehouses * sc.DistrictsPerWH * 9
	env.Spawn("terminal", func(p sim.Proc) {
		rng := env.NewRand("del-test")
		for i := 0; i < 10; i++ {
			if _, err := Delivery(p, exec, sc, rng); err != nil {
				t.Errorf("Delivery: %v", err)
			}
		}
	})
	env.Run(time.Minute)
	var after int
	var delivered int
	env.Spawn("check", func(p sim.Proc) {
		cl.Conn().ExecRead(p, rs.PrimaryID(), func(v cluster.ReadView) (any, error) {
			after = v.Count(CollNewOrders, storage.Filter{})
			delivered = v.Count(CollOrders, storage.Filter{"carrier_id": storage.Gt(0)})
			return nil, nil
		})
	})
	env.Run(2 * time.Minute)
	if after >= before {
		t.Errorf("new_orders not drained: %d -> %d", before, after)
	}
	// Each delivered order must have gained a carrier id.
	base := sc.Warehouses * sc.DistrictsPerWH * 21 // initially delivered
	if delivered <= base {
		t.Errorf("no orders gained carriers: %d vs base %d", delivered, base)
	}
}

func TestStockLevelCountsLowStock(t *testing.T) {
	sc := tinyScale()
	env, _, cl := newTestCluster(t, 6, sc)
	defer env.Shutdown()
	exec := workload.FixedPref{Client: cl, Pref: driver.Primary}
	var lats []time.Duration
	env.Spawn("terminal", func(p sim.Proc) {
		rng := env.NewRand("sl-test")
		for i := 0; i < 20; i++ {
			_, lat, err := StockLevel(p, exec, sc, rng)
			if err != nil {
				t.Errorf("StockLevel: %v", err)
				return
			}
			lats = append(lats, lat)
		}
	})
	env.Run(time.Minute)
	if len(lats) != 20 {
		t.Fatalf("%d stock levels completed", len(lats))
	}
	for _, l := range lats {
		if l <= 0 || l > 500*time.Millisecond {
			t.Fatalf("implausible StockLevel latency %v", l)
		}
	}
}

func TestPoolRunsMixAndReportsKinds(t *testing.T) {
	sc := tinyScale()
	env, _, cl := newTestCluster(t, 7, sc)
	defer env.Shutdown()
	obs := &kindCounter{kinds: map[string]int{}}
	pool := NewPool(env, workload.FixedPref{Client: cl, Pref: driver.Primary}, obs, sc, ReadWriteMix())
	pool.SetClients(20)
	env.Run(30 * time.Second)
	if pool.Active() != 20 {
		t.Fatalf("Active=%d", pool.Active())
	}
	total := 0
	for _, c := range obs.kinds {
		total += c
	}
	if total < 100 {
		t.Fatalf("only %d transactions completed", total)
	}
	slShare := float64(obs.kinds[KindStockLevel]) / float64(total)
	if slShare < 0.40 || slShare > 0.60 {
		t.Errorf("StockLevel share %.2f under read-write mix, want ~0.5 (kinds: %v)", slShare, obs.kinds)
	}
	if obs.kinds[KindNewOrder] == 0 || obs.kinds[KindPayment] == 0 {
		t.Errorf("missing write kinds: %v", obs.kinds)
	}
}

type kindCounter struct {
	kinds map[string]int
}

func (k *kindCounter) ObserveRead(at time.Duration, pref driver.ReadPref, lat time.Duration, kind string) {
	k.kinds[kind]++
}
func (k *kindCounter) ObserveWrite(at time.Duration, lat time.Duration, kind string) {
	k.kinds[kind]++
}

func TestIDHelpersDistinct(t *testing.T) {
	ids := []string{
		WarehouseID(1), DistrictID(1, 1), CustomerID(1, 1, 1), ItemID(1),
		StockID(1, 1), OrderID(1, 1, 1), NewOrderID(1, 1, 1),
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q across helpers", id)
		}
		seen[id] = true
	}
	if OrderID(1, 23, 4) == OrderID(12, 3, 4) {
		t.Fatal("composite ids ambiguous")
	}
	_ = fmt.Sprintf
}

// TestConcurrentNewOrdersNeverWedgeDistrict: NewOrders that read the
// same next_o_id race to insert the same order. The later commit must
// fail as a whole, so no district's counter ever names an order that
// already exists (which would fail every later NewOrder there).
func TestConcurrentNewOrdersNeverWedgeDistrict(t *testing.T) {
	sc := tinyScale()
	env, rs, cl := newTestCluster(t, 7, sc)
	defer env.Shutdown()
	pool := NewPool(env, workload.FixedPref{Client: cl, Pref: driver.Primary}, nil, sc, ReadWriteMix())
	pool.SetClients(100)
	env.Run(10 * time.Second)
	pool.SetClients(0)
	env.Run(11 * time.Second)
	failed, ran := pool.Failures(KindNewOrder)
	if ran-failed < 50 {
		t.Fatalf("only %d of %d NewOrders completed", ran-failed, ran)
	}
	var wedged []string
	env.Spawn("check", func(p sim.Proc) {
		cl.Conn().ExecRead(p, rs.PrimaryID(), func(v cluster.ReadView) (any, error) {
			for w := 1; w <= sc.Warehouses; w++ {
				for d := 1; d <= sc.DistrictsPerWH; d++ {
					dist, _ := v.FindByID(CollDistrict, DistrictID(w, d))
					next := int(dist.Int("next_o_id"))
					if _, taken := v.FindByID(CollOrders, OrderID(w, d, next)); taken {
						wedged = append(wedged, fmt.Sprintf("%s at next_o_id %d", DistrictID(w, d), next))
					}
				}
			}
			return nil, nil
		})
	})
	env.Run(12 * time.Second)
	if len(wedged) > 0 {
		t.Fatalf("districts whose next_o_id names an existing order: %v (NewOrder: %d of %d failed)", wedged, failed, ran)
	}
	t.Logf("NewOrder: %d of %d failed", failed, ran)
}
