package ycsb

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
)

// memberDigests returns, per member, the SHA-256 of every record's _id
// followed by its stored bytes, in _id order.
func memberDigests(t *testing.T, env *sim.VirtualEnv, rs *cluster.ReplicaSet) []string {
	t.Helper()
	var sums []string
	env.Spawn("digest", func(p sim.Proc) {
		for _, id := range rs.NodeIDs() {
			res, err := rs.ExecRead(p, id, func(v cluster.ReadView) (any, error) {
				h := sha256.New()
				for _, e := range v.(cluster.EncodedReadView).FindEncoded(Table, storage.Filter{}, 0) {
					key, _ := e.Get("_id")
					h.Write([]byte(key.(string)))
					h.Write(e.Bytes())
				}
				return fmt.Sprintf("%x", h.Sum(nil)), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			sums = append(sums, res.(string))
		}
	})
	env.Run(time.Second)
	return sums
}

// TestLoadBytesAreUnchanged pins what Load stores: every member of a
// 3-member set holds exactly the records (same _ids, same encoded
// bytes) that the loader stored when it generated them once per
// member. The digest was recorded from that loader; a change to the
// generator's draw order, the field names or the key format breaks it,
// and with it every seeded virtual-time figure.
func TestLoadBytesAreUnchanged(t *testing.T) {
	const want = "0f6188fc3148b02ac19cbd68fcded5af039f796e493e3334192641ff8ca314c1"
	env := sim.NewEnv(1)
	defer env.Shutdown()
	rs := cluster.New(env, cluster.DefaultConfig())
	spec := WorkloadB()
	spec.RecordCount = 500
	if err := Load(rs, spec, 42); err != nil {
		t.Fatal(err)
	}
	sums := memberDigests(t, env, rs)
	if len(sums) != 3 {
		t.Fatalf("read %d members, want 3", len(sums))
	}
	for id, sum := range sums {
		if sum != want {
			t.Errorf("member %d records digest %s, want %s", id, sum, want)
		}
	}
}

func TestKeyName(t *testing.T) {
	for _, i := range []int64{0, 7, 10, 49_999, 1 << 40} {
		if got, want := KeyName(i), fmt.Sprintf("user%d", i); got != want {
			t.Errorf("KeyName(%d) = %q, want %q", i, got, want)
		}
	}
}

// BenchmarkLoad measures a deployment's data set-up: Load of 50,000
// YCSB records (10 fields of 100 bytes, as perfbench loads them) into
// a 3-member replica set. Run it with
//
//	go test ./internal/workload/ycsb -run '^$' -bench BenchmarkLoad -benchmem -count 3
func BenchmarkLoad(b *testing.B) {
	spec := WorkloadB()
	spec.RecordCount = 50_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := sim.NewEnv(1)
		rs := cluster.New(env, cluster.DefaultConfig())
		b.StartTimer()
		if err := Load(rs, spec, 1); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		env.Shutdown()
		b.StartTimer()
	}
}
