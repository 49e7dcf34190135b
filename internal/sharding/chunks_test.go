package sharding

import (
	"fmt"
	"testing"
	"time"

	"decongestant/internal/sim"
)

func TestNewChunkMapCoversKeySpace(t *testing.T) {
	// Unsorted with duplicates and an empty split: all normalized away.
	m := NewChunkMap([]string{"m", "d", "m", "", "t"}, 3)
	if m.Version != 1 {
		t.Fatalf("fresh map version = %d, want 1", m.Version)
	}
	if got := m.NumChunks(); got != 4 {
		t.Fatalf("NumChunks = %d, want 4", got)
	}
	if m.Chunks[0].Min != "" || m.Chunks[len(m.Chunks)-1].Max != "" {
		t.Fatalf("map does not cover key space: %v", m.Chunks)
	}
	for i := 1; i < len(m.Chunks); i++ {
		if m.Chunks[i].Min != m.Chunks[i-1].Max {
			t.Fatalf("gap between chunks %d and %d: %v", i-1, i, m.Chunks)
		}
	}
	// Binary-search owner must agree with a linear scan for many keys.
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("%c%03d", 'a'+i%26, i)
		want := -1
		for _, ck := range m.Chunks {
			if ck.Contains(key) {
				want = ck.Shard
				break
			}
		}
		if got := m.Owner(key); got != want {
			t.Fatalf("Owner(%q) = %d, want %d", key, got, want)
		}
	}
	// Boundary keys land in the right-hand chunk (half-open ranges).
	if m.At("d").Min != "d" {
		t.Fatalf("At(%q) = %v, want chunk starting at d", "d", m.At("d"))
	}
}

func TestChunkMapSplitAndMove(t *testing.T) {
	m := NewChunkMap([]string{"m"}, 2)
	owners := map[string]int{}
	for _, k := range []string{"a", "m", "z"} {
		owners[k] = m.Owner(k)
	}
	m2, err := m.split("f")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version != m.Version+1 || m2.NumChunks() != m.NumChunks()+1 {
		t.Fatalf("split produced version %d with %d chunks", m2.Version, m2.NumChunks())
	}
	for k, want := range owners {
		if got := m2.Owner(k); got != want {
			t.Fatalf("split changed ownership of %q: %d -> %d", k, want, got)
		}
	}
	if _, err := m2.split("f"); err == nil {
		t.Fatal("re-splitting at an existing boundary must fail")
	}
	if _, err := m2.split(""); err == nil {
		t.Fatal("splitting at -inf must fail")
	}
	m3 := m2.move("f", 1)
	if got := m3.Owner("g"); got != 1 {
		t.Fatalf("after move, Owner(g) = %d, want 1", got)
	}
	if got := m3.Owner("a"); got != owners["a"] {
		t.Fatalf("move changed an unrelated chunk: Owner(a) = %d", got)
	}
	if m2.Owner("g") == 1 {
		t.Fatal("move mutated its input map")
	}
}

// TestChunkRoutingZeroAllocs: placing a point read — the cached
// table's Owner, the authority's Enter and the lease release — runs on
// every routed op and allocates nothing, on either clock.
func TestChunkRoutingZeroAllocs(t *testing.T) {
	const id = "user:12345:profile"
	allocs := func(env sim.Env, p sim.Proc) float64 {
		a := NewChunkAuthority(env, NewChunkMap([]string{"user:2", "user:5", "user:8"}, 4))
		m := a.Map()
		return testing.AllocsPerRun(1000, func() {
			l, err := a.Enter(p, id, m.Owner(id), false)
			if err != nil {
				t.Error(err)
				return
			}
			l.release()
		})
	}

	venv := sim.NewEnv(1)
	defer venv.Shutdown()
	var virtual float64
	venv.Spawn("client", func(p sim.Proc) { virtual = allocs(venv, p) })
	venv.Run(time.Second)
	renv := sim.NewRealtimeEnv(1)
	defer renv.Shutdown()
	real := allocs(renv, renv.Adhoc("client"))
	if virtual != 0 || real != 0 {
		t.Fatalf("chunk-routed placement allocates %.2f/op (virtual clock), %.2f/op (real clock); want 0", virtual, real)
	}
}

func TestAuthorityEnterDetectsStalePlacement(t *testing.T) {
	env := sim.NewEnv(3)
	defer env.Shutdown()
	a := NewChunkAuthority(env, NewChunkMap([]string{"m"}, 2))
	ran := false
	env.Spawn("probe", func(p sim.Proc) {
		owner := a.Map().Owner("q")
		l, err := a.Enter(p, "q", owner, false)
		if err != nil {
			t.Errorf("Enter with correct owner: %v", err)
			return
		}
		l.release()
		wrong := (owner + 1) % 2
		if _, err := a.Enter(p, "q", wrong, false); !IsStaleChunk(err) {
			t.Errorf("Enter with wrong owner: got %v, want StaleChunkError", err)
		}
		ran = true
	})
	env.Run(time.Second)
	if !ran {
		t.Fatal("probe did not finish")
	}
}

// TestFreezeBlocksWritesUntilHandoff drives the migration hand-off
// protocol directly: a write to the frozen chunk blocks, and after
// commitMove it observes the new owner as a stale rejection (the
// router's cue to reroute to the destination).
func TestFreezeBlocksWritesUntilHandoff(t *testing.T) {
	env := sim.NewEnv(4)
	defer env.Shutdown()
	a := NewChunkAuthority(env, NewChunkMap([]string{"m"}, 2))
	ck := a.Map().At("q")
	src := ck.Shard

	var writeErr error
	writerDone := false
	env.Spawn("coordinator", func(p sim.Proc) {
		if _, err := a.beginMigration("q", 1-src); err != nil {
			t.Error(err)
			return
		}
		a.freezeWrites(p, ck)
		env.Spawn("writer", func(wp sim.Proc) {
			_, writeErr = a.Enter(wp, "q", src, true)
			writerDone = true
		})
		// Give the writer time to hit the freeze, then hand off.
		p.Sleep(20 * time.Millisecond)
		if writerDone {
			t.Error("write entered a frozen chunk before the hand-off")
			return
		}
		a.commitMove(ck, 1-src)
	})
	env.Run(time.Second)
	if !writerDone {
		t.Fatal("writer never returned from Enter")
	}
	if !IsStaleChunk(writeErr) {
		t.Fatalf("post-handoff write got %v, want StaleChunkError steering it to the destination", writeErr)
	}
	if got := a.Map().Owner("q"); got != 1-src {
		t.Fatalf("owner after commitMove = %d, want %d", got, 1-src)
	}
	if a.Version() != 2 {
		t.Fatalf("version after move = %d, want 2", a.Version())
	}
}

func TestRangesOverlap(t *testing.T) {
	cases := []struct {
		aMin, aMax, bMin, bMax string
		want                   bool
	}{
		{"", "", "m", "t", true},
		{"a", "f", "f", "k", false},
		{"a", "g", "f", "k", true},
		{"t", "", "", "a", false},
		{"", "a", "a", "", false},
		{"m", "t", "m", "t", true},
	}
	for _, c := range cases {
		if got := rangesOverlap(c.aMin, c.aMax, c.bMin, c.bMax); got != c.want {
			t.Errorf("rangesOverlap(%q,%q,%q,%q) = %v, want %v", c.aMin, c.aMax, c.bMin, c.bMax, got, c.want)
		}
	}
}
