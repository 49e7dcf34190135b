package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// idModel is the plain-map reference the _id index is checked against.
type idModel map[string]Document

func (m idModel) clone() idModel {
	out := make(idModel, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// merge mirrors ApplySet: the fields land on the existing document
// (or a new one), and the _id stays the key.
func (m idModel) merge(id string, fields Document) {
	d := Document{}
	for k, v := range m[id] {
		d[k] = v
	}
	for k, v := range fields {
		d[k] = v
	}
	d["_id"] = id
	m[id] = d
}

// checkAgainstModel compares every read path of the _id index with the
// model: Len, FindByID and FindByIDEncoded for present and absent ids,
// and the ordered walk.
func checkAgainstModel(t *testing.T, step int, c *Collection, m idModel, ids []string) {
	t.Helper()
	if c.Len() != len(m) {
		t.Fatalf("step %d: Len %d, model %d", step, c.Len(), len(m))
	}
	for _, id := range ids {
		want, present := m[id]
		d, ok := c.FindByID(id)
		e, eok := c.FindByIDEncoded(id)
		if ok != present || eok != present {
			t.Fatalf("step %d: %s found=%v/%v, model %v", step, id, ok, eok, present)
		}
		if !present {
			continue
		}
		if !Equal(d, want) || !Equal(e.Doc(), want) {
			t.Fatalf("step %d: %s = %v / %v, model %v", step, id, d, e.Doc(), want)
		}
		if back, err := DecodeDoc(e.Bytes()); err != nil || !Equal(back, want) {
			t.Fatalf("step %d: %s cached encoding decodes to %v, %v", step, id, back, err)
		}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var walked []string
	c.ScanIDs(func(id string) bool { walked = append(walked, id); return true })
	if fmt.Sprint(walked) != fmt.Sprint(keys) {
		t.Fatalf("step %d: ordered walk %v, model %v", step, walked, keys)
	}
}

// TestIDIndexMatchesMapModel drives a random sequence of Insert,
// Upsert, ApplySet, Delete, ApplyBatch and CloneShallow over a key
// space large enough to split and merge the ordered tree, and checks
// Len against a plain map after each step and every read path after
// every tenth. A clone keeps
// being checked against its snapshot of the model while the live
// collection moves on.
func TestIDIndexMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := make([]string, 300)
	for i := range ids {
		ids[i] = fmt.Sprintf("k%03d", i)
	}
	c := NewStore().C("c")
	if _, err := c.CreateIndex("grp", false, "grp"); err != nil {
		t.Fatal(err)
	}
	m := idModel{}
	var frozen *Collection
	var frozenModel idModel
	for step := 0; step < 3000; step++ {
		id := ids[rng.Intn(len(ids))]
		v := int64(rng.Intn(1000))
		switch op := rng.Intn(10); {
		case op < 2:
			err := c.Insert(D{"_id": id, "grp": v % 8, "v": v})
			if _, exists := m[id]; exists != (err != nil) {
				t.Fatalf("step %d: Insert %s err=%v, model has it: %v", step, id, err, exists)
			}
			if err == nil {
				m[id] = D{"_id": id, "grp": v % 8, "v": v}
			}
		case op < 4:
			if err := upsert(c, encoded(D{"_id": id, "v": v})); err != nil {
				t.Fatal(err)
			}
			m[id] = D{"_id": id, "v": v}
		case op < 6:
			if _, err := c.ApplySet(id, D{"grp": v % 8, "w": v}); err != nil {
				t.Fatal(err)
			}
			m.merge(id, D{"grp": v % 8, "w": v})
		case op < 8:
			_, present := m[id]
			if (c.Delete(id) != nil) != present {
				t.Fatalf("step %d: Delete %s disagrees with the model", step, id)
			}
			delete(m, id)
		case op < 9:
			var ops []ApplyOp
			for j := rng.Intn(8); j >= 0; j-- {
				id := ids[rng.Intn(len(ids))]
				switch rng.Intn(3) {
				case 0:
					ops = append(ops, ApplyOp{Kind: ApplyUpsert, ID: id, Enc: EncodeDoc(D{"_id": id, "v": v})})
					m[id] = D{"_id": id, "v": v}
				case 1:
					ops = append(ops, ApplyOp{Kind: ApplyMerge, ID: id, Enc: EncodeDoc(D{"w": v})})
					m.merge(id, D{"w": v})
				default:
					ops = append(ops, ApplyOp{Kind: ApplyDelete, ID: id})
					delete(m, id)
				}
			}
			if n, err := c.ApplyBatch(ops); err != nil || n.Applied != len(ops) {
				t.Fatalf("step %d: ApplyBatch applied %d of %d: %v", step, n.Applied, len(ops), err)
			}
		default:
			frozen, frozenModel = c, m.clone()
			c = c.CloneShallow()
		}
		if c.Len() != len(m) {
			t.Fatalf("step %d: Len %d, model %d", step, c.Len(), len(m))
		}
		if step%10 == 0 {
			checkAgainstModel(t, step, c, m, ids)
		}
		if frozen != nil && step%50 == 0 {
			checkAgainstModel(t, step, frozen, frozenModel, ids)
		}
	}
}

// TestIDIndexConcurrentReaders runs one writer against readers using
// every _id read path. Each write sets fields a and b to the same
// value, so a reader that ever sees them differ has seen a document
// mutated in place rather than replaced. Run it with -race.
func TestIDIndexConcurrentReaders(t *testing.T) {
	const keys = 200
	c := NewStore().C("c")
	id := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for i := 0; i < keys; i += 2 {
		if err := c.Insert(D{"_id": id(i), "a": int64(0), "b": int64(0)}); err != nil {
			t.Fatal(err)
		}
	}
	consistent := func(d Document) error {
		if d.Int("a") != d.Int("b") {
			return fmt.Errorf("%s: a=%d b=%d", d["_id"], d.Int("a"), d.Int("b"))
		}
		return nil
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := id(rng.Intn(keys))
				if d, ok := c.FindByID(k); ok {
					if err := consistent(d); err != nil {
						errs <- err
						return
					}
				}
				if e, ok := c.FindByIDEncoded(k); ok {
					d, err := DecodeDoc(e.Bytes())
					if err == nil {
						err = consistent(d)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				for _, d := range c.Find(Filter{"_id": Gte(k)}, 5) {
					if err := consistent(d); err != nil {
						errs <- err
						return
					}
				}
				_ = c.Len()
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20000; i++ {
		k, v := id(rng.Intn(keys)), int64(i)
		switch rng.Intn(4) {
		case 0:
			_, _ = c.ApplySet(k, D{"a": v, "b": v})
		case 1:
			_ = upsert(c, encoded(D{"_id": k, "a": v, "b": v}))
		case 2:
			c.Delete(k)
		default:
			_, _ = c.ApplyBatch([]ApplyOp{{Kind: ApplyUpsert, ID: k, Enc: EncodeDoc(D{"_id": k, "a": v, "b": v})}})
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
