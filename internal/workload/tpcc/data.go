// Package tpcc implements a document-model TPC-C in the spirit of
// Kamsky's MongoDB adaptation (PVLDB'19): orders embed their order
// lines, documents are keyed by composite string _ids, and the five
// transaction types run as multi-operation transactions against the
// replica set. The paper's *read-write TPC-C* variant (Table 1) boosts
// the read-only Stock Level transaction to 50% of the mix.
//
// Scale is configurable; the defaults are a laptop-scale population
// (fewer customers/items than the TPC-C standard, same document
// shapes and access patterns), which preserves the congestion and
// replication behaviour the experiments measure.
package tpcc

import (
	"fmt"
	"math/rand"

	"decongestant/internal/cluster"
	"decongestant/internal/storage"
	"decongestant/internal/workload"
)

// Collection names.
const (
	CollWarehouse = "warehouse"
	CollDistrict  = "district"
	CollCustomer  = "customer"
	CollItem      = "item"
	CollStock     = "stock"
	CollOrders    = "orders"
	CollNewOrders = "new_orders"
	CollHistory   = "history"
)

// Scale describes the data population.
type Scale struct {
	Warehouses           int
	DistrictsPerWH       int
	CustomersPerDistrict int
	Items                int
	// InitialOrdersPerDistrict seeds order history; the newest
	// UndeliveredFraction of them also get new_orders entries.
	InitialOrdersPerDistrict int
	UndeliveredFraction      float64
}

// DefaultScale is the laptop-scale population used by the experiments.
func DefaultScale() Scale {
	return Scale{
		Warehouses:               4,
		DistrictsPerWH:           10,
		CustomersPerDistrict:     300,
		Items:                    10_000,
		InitialOrdersPerDistrict: 300,
		UndeliveredFraction:      0.30,
	}
}

// ID helpers: composite string keys.
func WarehouseID(w int) string      { return fmt.Sprintf("w_%d", w) }
func DistrictID(w, d int) string    { return fmt.Sprintf("d_%d_%d", w, d) }
func CustomerID(w, d, c int) string { return fmt.Sprintf("c_%d_%d_%d", w, d, c) }
func ItemID(i int) string           { return fmt.Sprintf("i_%d", i) }
func StockID(w, i int) string       { return fmt.Sprintf("s_%d_%d", w, i) }
func OrderID(w, d, o int) string    { return fmt.Sprintf("o_%d_%d_%d", w, d, o) }
func NewOrderID(w, d, o int) string { return fmt.Sprintf("no_%d_%d_%d", w, d, o) }

// Load bootstraps the full population and indexes onto every node. It
// generates them once, into the primary's store; the other members
// start from a copy of it (see cluster.ReplicaSet.Bootstrap).
func Load(rs *cluster.ReplicaSet, sc Scale, seed int64) error {
	return rs.Bootstrap(func(s *storage.Store) error {
		rng := rand.New(rand.NewSource(seed))
		if err := createIndexes(s); err != nil {
			return err
		}
		if err := loadItems(s, sc, rng); err != nil {
			return err
		}
		for w := 1; w <= sc.Warehouses; w++ {
			if err := loadWarehouse(s, sc, w, rng); err != nil {
				return err
			}
		}
		return nil
	})
}

func createIndexes(s *storage.Store) error {
	orders := s.C(CollOrders)
	if _, err := orders.CreateIndex("wdo", false, "w_id", "d_id", "o_id"); err != nil {
		return err
	}
	if _, err := orders.CreateIndex("wdco", false, "w_id", "d_id", "c_id", "o_id"); err != nil {
		return err
	}
	if _, err := s.C(CollNewOrders).CreateIndex("wdo", false, "w_id", "d_id", "o_id"); err != nil {
		return err
	}
	return nil
}

func loadItems(s *storage.Store, sc Scale, rng *rand.Rand) error {
	c := s.C(CollItem)
	for i := 1; i <= sc.Items; i++ {
		err := c.Insert(storage.D{
			"_id":   ItemID(i),
			"i_id":  i,
			"name":  workload.RandString(rng, 24),
			"price": 1 + rng.Float64()*99,
			"data":  workload.RandString(rng, 50),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func loadWarehouse(s *storage.Store, sc Scale, w int, rng *rand.Rand) error {
	if err := s.C(CollWarehouse).Insert(storage.D{
		"_id":  WarehouseID(w),
		"w_id": w,
		"name": workload.RandString(rng, 10),
		"tax":  rng.Float64() * 0.2,
		"ytd":  300000.0,
	}); err != nil {
		return err
	}
	stock := s.C(CollStock)
	for i := 1; i <= sc.Items; i++ {
		if err := stock.Insert(storage.D{
			"_id":        StockID(w, i),
			"w_id":       w,
			"i_id":       i,
			"quantity":   10 + rng.Intn(91),
			"ytd":        0,
			"order_cnt":  0,
			"remote_cnt": 0,
		}); err != nil {
			return err
		}
	}
	for d := 1; d <= sc.DistrictsPerWH; d++ {
		if err := loadDistrict(s, sc, w, d, rng); err != nil {
			return err
		}
	}
	return nil
}

func loadDistrict(s *storage.Store, sc Scale, w, d int, rng *rand.Rand) error {
	if err := s.C(CollDistrict).Insert(storage.D{
		"_id":       DistrictID(w, d),
		"w_id":      w,
		"d_id":      d,
		"name":      workload.RandString(rng, 10),
		"tax":       rng.Float64() * 0.2,
		"ytd":       30000.0,
		"next_o_id": sc.InitialOrdersPerDistrict + 1,
	}); err != nil {
		return err
	}
	customers := s.C(CollCustomer)
	for c := 1; c <= sc.CustomersPerDistrict; c++ {
		if err := customers.Insert(storage.D{
			"_id":          CustomerID(w, d, c),
			"w_id":         w,
			"d_id":         d,
			"c_id":         c,
			"last":         workload.RandString(rng, 12),
			"balance":      -10.0,
			"ytd_payment":  10.0,
			"payment_cnt":  1,
			"delivery_cnt": 0,
			"data":         workload.RandString(rng, 250),
		}); err != nil {
			return err
		}
	}
	orders := s.C(CollOrders)
	newOrders := s.C(CollNewOrders)
	deliveredThrough := int(float64(sc.InitialOrdersPerDistrict) * (1 - sc.UndeliveredFraction))
	for o := 1; o <= sc.InitialOrdersPerDistrict; o++ {
		nLines := 5 + rng.Intn(11)
		lines := make([]any, 0, nLines)
		for l := 0; l < nLines; l++ {
			lines = append(lines, storage.D{
				"i_id":       1 + rng.Intn(sc.Items),
				"supply_w":   w,
				"qty":        5,
				"amount":     rng.Float64() * 100,
				"delivery_d": int64(0),
			})
		}
		delivered := o <= deliveredThrough
		carrier := 0
		if delivered {
			carrier = 1 + rng.Intn(10)
		}
		if err := orders.Insert(storage.D{
			"_id":         OrderID(w, d, o),
			"w_id":        w,
			"d_id":        d,
			"o_id":        o,
			"c_id":        1 + rng.Intn(sc.CustomersPerDistrict),
			"entry_d":     int64(0),
			"carrier_id":  carrier,
			"ol_cnt":      nLines,
			"order_lines": lines,
		}); err != nil {
			return err
		}
		if !delivered {
			if err := newOrders.Insert(storage.D{
				"_id":  NewOrderID(w, d, o),
				"w_id": w,
				"d_id": d,
				"o_id": o,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
