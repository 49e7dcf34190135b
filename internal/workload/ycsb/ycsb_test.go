package ycsb

import (
	"math/rand"
	"testing"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/sim"
	"decongestant/internal/workload"
)

func TestZipfianSkewAndRange(t *testing.T) {
	const n = 1000
	z := NewZipfian(n)
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next(rng)
		if v < 0 || v >= n {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// Item 0 should get roughly 1/zeta(n) of the mass (~13% for n=1000).
	p0 := float64(counts[0]) / draws
	if p0 < 0.10 || p0 > 0.18 {
		t.Fatalf("P(item0)=%.3f, want ~0.13", p0)
	}
	if counts[0] < counts[n/2]*10 {
		t.Fatalf("head not much hotter than middle: %d vs %d", counts[0], counts[n/2])
	}
}

func TestScrambledZipfianSpreadsHead(t *testing.T) {
	const n = 1000
	s := NewScrambledZipfian(n)
	rng := rand.New(rand.NewSource(2))
	counts := make(map[int64]int)
	for i := 0; i < 100000; i++ {
		v := s.Next(rng)
		if v < 0 || v >= n {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// The hottest item should not be item 0 systematically and should
	// still be much hotter than the median — skew preserved, head moved.
	hottest, hot := int64(-1), 0
	for k, c := range counts {
		if c > hot {
			hottest, hot = k, c
		}
	}
	if hot < 5000 {
		t.Fatalf("skew lost after scrambling: max count %d", hot)
	}
	_ = hottest
}

func TestUniformCoversRange(t *testing.T) {
	u := NewUniform(100)
	rng := rand.New(rand.NewSource(3))
	seen := map[int64]bool{}
	for i := 0; i < 10000; i++ {
		seen[u.Next(rng)] = true
	}
	if len(seen) < 95 {
		t.Fatalf("uniform covered only %d/100 items", len(seen))
	}
}

func TestSpecsProportionsSumToOne(t *testing.T) {
	// Every operation that is not a read is an update, so a mix sums to
	// one exactly when its read proportion is a probability.
	for _, s := range []Spec{WorkloadA(), WorkloadB()} {
		if s.ReadProportion < 0 || s.ReadProportion > 1 {
			t.Errorf("%s read proportion %v is not in [0, 1]", s.Name, s.ReadProportion)
		}
	}
	if a := WorkloadA(); a.ReadProportion != 0.5 {
		t.Error("YCSB-A read proportion wrong")
	}
	if b := WorkloadB(); b.ReadProportion != 0.95 {
		t.Error("YCSB-B read proportion wrong")
	}
}

type countingObserver struct {
	reads, writes int
	secondary     int
}

func (c *countingObserver) ObserveRead(at time.Duration, pref driver.ReadPref, lat time.Duration, kind string) {
	c.reads++
	if pref == driver.Secondary {
		c.secondary++
	}
}
func (c *countingObserver) ObserveWrite(at time.Duration, lat time.Duration, kind string) {
	c.writes++
}

func newTestCluster(seed int64) (*sim.VirtualEnv, *cluster.ReplicaSet, *driver.Client) {
	env := sim.NewEnv(seed)
	cfg := cluster.DefaultConfig()
	cfg.CheckpointInterval = time.Hour
	cfg.NoopInterval = time.Hour
	rs := cluster.New(env, cfg)
	cl := driver.NewClient(env, driver.WrapCluster(rs))
	return env, rs, cl
}

func TestLoadAndRunMixAgainstPrimary(t *testing.T) {
	env, rs, cl := newTestCluster(5)
	defer env.Shutdown()
	spec := WorkloadA()
	spec.RecordCount = 500
	if err := Load(rs, spec, 42); err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	pool := NewPool(env, workload.FixedPref{Client: cl, Pref: driver.Primary}, obs, spec)
	pool.SetClients(10)
	env.Run(5 * time.Second)
	if obs.reads == 0 || obs.writes == 0 {
		t.Fatalf("reads=%d writes=%d", obs.reads, obs.writes)
	}
	ratio := float64(obs.reads) / float64(obs.reads+obs.writes)
	if ratio < 0.42 || ratio > 0.58 {
		t.Fatalf("read ratio %.2f for YCSB-A, want ~0.5", ratio)
	}
	if obs.secondary != 0 {
		t.Fatal("primary-only executor routed to secondary")
	}
}

func TestPoolSwitchesSpecAtRuntime(t *testing.T) {
	env, rs, cl := newTestCluster(6)
	defer env.Shutdown()
	specA := WorkloadA()
	specA.RecordCount = 300
	if err := Load(rs, specA, 1); err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	pool := NewPool(env, workload.FixedPref{Client: cl, Pref: driver.Primary}, obs, specA)
	pool.SetClients(10)
	env.Run(4 * time.Second)
	r0, w0 := obs.reads, obs.writes
	pool.SetSpec(WorkloadB())
	env.Run(8 * time.Second)
	r1, w1 := obs.reads-r0, obs.writes-w0
	ratio := float64(r1) / float64(r1+w1)
	if ratio < 0.9 {
		t.Fatalf("read ratio %.2f after switch to YCSB-B, want ~0.95", ratio)
	}
	pool.mu.Lock()
	name := pool.spec.Name
	pool.mu.Unlock()
	if name != "YCSB-B" {
		t.Fatal("spec not switched")
	}
}

func TestPoolScalesClientsUpAndDown(t *testing.T) {
	env, rs, cl := newTestCluster(7)
	defer env.Shutdown()
	spec := WorkloadB()
	spec.RecordCount = 300
	if err := Load(rs, spec, 1); err != nil {
		t.Fatal(err)
	}
	obs := &countingObserver{}
	pool := NewPool(env, workload.FixedPref{Client: cl, Pref: driver.Primary}, obs, spec)
	pool.SetClients(40)
	env.Run(5 * time.Second)
	high := obs.reads + obs.writes
	pool.SetClients(2)
	env.Run(10 * time.Second)
	low := obs.reads + obs.writes - high
	pool.mu.Lock()
	active := pool.active
	pool.mu.Unlock()
	if active != 2 {
		t.Fatalf("active=%d", active)
	}
	// 2 clients over 5s must do far less than 40 clients over 5s
	// (closed loop at saturation).
	if low > high {
		t.Fatalf("throughput did not drop: %d then %d", high, low)
	}
}
