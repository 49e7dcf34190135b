package oplog

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"decongestant/internal/storage"
)

// TestStoreMatchesMapModel applies random insert, $set and delete
// entries to two stores — one entry at a time through Entry.Apply, and
// in random-length runs through CheckBatch and ApplyBatch — and after
// every step requires each document's stored bytes on both to equal
// the canonical encoding of a plain-map model. The $set fields add new
// names, replace old ones (with values of another type too), nest
// documents and arrays, and sometimes carry an _id, which the merge
// must drop.
func TestStoreMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ids := []string{"a", "b", "c", "user1", "user10", "user2", "_", "~"}
	names := []string{"_id", "a", "b", "field0", "field1", "field10", "field2", "n", "z", "~"}
	value := func(depth int) any {
		switch k := rng.Intn(9); {
		case k == 0:
			return nil
		case k == 1:
			return rng.Intn(2) == 0
		case k == 2:
			return rng.Int63n(1<<40) - 1<<39
		case k == 3:
			return rng.Float64()
		case k == 4:
			return []byte(fmt.Sprint(rng.Intn(100)))
		case k == 5 && depth < 2:
			return []any{int64(rng.Intn(9)), "x", storage.D{"in": int64(depth)}}
		case k == 6 && depth < 2:
			return storage.D{"y": int64(rng.Intn(9)), "x": fmt.Sprint(depth)}
		default:
			return fmt.Sprintf("%0*d", rng.Intn(120), rng.Intn(1000))
		}
	}
	fields := func() storage.Document {
		d := storage.Document{}
		for i := rng.Intn(4); i >= 0; i-- {
			d[names[rng.Intn(len(names))]] = value(0)
		}
		return d
	}
	model := map[string]storage.Document{}
	one, batched := storage.NewStore(), storage.NewStore()
	var pending []*Entry
	ts := OpTime{Secs: 1}
	for step := 0; step < 4000; step++ {
		ts.Inc++
		id := ids[rng.Intn(len(ids))]
		var e *Entry
		switch op := rng.Intn(10); {
		case op < 2:
			doc := fields()
			doc["_id"] = id
			e = NewInsert(ts, "c", doc)
			model[id] = doc
		case op < 9:
			set := fields()
			e = NewSet(ts, "c", id, set)
			merged := storage.Document{"_id": id}
			for k, v := range model[id] {
				merged[k] = v
			}
			for k, v := range set {
				if k != "_id" {
					merged[k] = v
				}
			}
			model[id] = merged
		default:
			e = NewDelete(ts, "c", id)
			delete(model, id)
		}
		if err := e.Apply(one); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		pending = append(pending, e)
		if rng.Intn(4) == 0 {
			checked, dropped, err := CheckBatch(pending)
			if dropped != 0 || err != nil {
				t.Fatalf("step %d: CheckBatch dropped %d: %v", step, dropped, err)
			}
			if _, failed, err := ApplyBatch(batched, checked, nil, nil); failed != 0 || err != nil {
				t.Fatalf("step %d: ApplyBatch failed %d: %v", step, failed, err)
			}
			pending = pending[:0]
			checkModel(t, step, batched, model, ids)
		}
		checkModel(t, step, one, model, ids)
	}
}

// checkModel requires the store's collection "c" to hold exactly the
// model's documents, each stored as its canonical encoding.
func checkModel(t *testing.T, step int, s *storage.Store, model map[string]storage.Document, ids []string) {
	t.Helper()
	c := s.C("c")
	if c.Len() != len(model) {
		t.Fatalf("step %d: %d documents, model has %d", step, c.Len(), len(model))
	}
	for _, id := range ids {
		e, ok := c.FindByIDEncoded(id)
		want, inModel := model[id]
		if ok != inModel {
			t.Fatalf("step %d: %s present=%v, model %v", step, id, ok, inModel)
		}
		if ok && !bytes.Equal(e.Bytes(), storage.EncodeDoc(want)) {
			t.Fatalf("step %d: %s stored as %v, model %v", step, id, e.Doc(), want)
		}
	}
}
