package sim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealtimeSleepAndNow(t *testing.T) {
	env := NewRealtimeEnv(1)
	defer env.Shutdown()
	var elapsed atomic.Int64
	done := make(chan struct{})
	env.Spawn("p", func(p Proc) {
		start := p.Now()
		p.Sleep(20 * time.Millisecond)
		elapsed.Store(int64(p.Now() - start))
		close(done)
	})
	<-done
	if e := time.Duration(elapsed.Load()); e < 15*time.Millisecond {
		t.Fatalf("slept only %v", e)
	}
}

func TestRealtimeSemaphoreLimitsConcurrency(t *testing.T) {
	env := NewRealtimeEnv(1)
	defer env.Shutdown()
	sem := env.NewSemaphore(2)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		env.Spawn("w", func(p Proc) {
			defer wg.Done()
			sem.Acquire(p)
			n := cur.Add(1)
			for {
				pk := peak.Load()
				if n <= pk || peak.CompareAndSwap(pk, n) {
					break
				}
			}
			p.Sleep(5 * time.Millisecond)
			cur.Add(-1)
			sem.Release()
		})
	}
	wg.Wait()
	if pk := peak.Load(); pk > 2 {
		t.Fatalf("peak concurrency %d exceeds capacity 2", pk)
	}
}

func TestRealtimeMailbox(t *testing.T) {
	env := NewRealtimeEnv(1)
	defer env.Shutdown()
	mb := env.NewMailbox()
	got := make(chan int, 3)
	env.Spawn("recv", func(p Proc) {
		for i := 0; i < 3; i++ {
			got <- mb.Recv(p).(int)
		}
	})
	for i := 0; i < 3; i++ {
		mb.Send(i)
	}
	for i := 0; i < 3; i++ {
		select {
		case v := <-got:
			if v != i {
				t.Fatalf("got %d, want %d", v, i)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for mailbox message")
		}
	}
}

func TestRealtimeGateBroadcast(t *testing.T) {
	env := NewRealtimeEnv(1)
	defer env.Shutdown()
	gate := env.NewGate()
	var woke atomic.Int64
	var ready sync.WaitGroup
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		ready.Add(1)
		wg.Add(1)
		env.Spawn("w", func(p Proc) {
			defer wg.Done()
			ready.Done()
			gate.Wait(p)
			woke.Add(1)
		})
	}
	ready.Wait()
	time.Sleep(10 * time.Millisecond) // let them reach Wait
	gate.Broadcast()
	wg.Wait()
	if woke.Load() != 4 {
		t.Fatalf("woke=%d, want 4", woke.Load())
	}
}

func TestRealtimeGateWaitTimeout(t *testing.T) {
	env := NewRealtimeEnv(1)
	defer env.Shutdown()
	gate := env.NewGate()
	p := env.Adhoc("waiter")
	start := time.Now()
	if gate.WaitTimeout(p, 20*time.Millisecond) {
		t.Fatal("WaitTimeout reported broadcast, want timeout")
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("WaitTimeout returned before the timeout elapsed")
	}
	done := make(chan bool, 1)
	go func() {
		q := env.Adhoc("waiter2")
		done <- gate.WaitTimeout(q, 10*time.Second)
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	gate.Broadcast()
	select {
	case fired := <-done:
		if !fired {
			t.Fatal("WaitTimeout reported timeout, want broadcast")
		}
	case <-time.After(time.Second):
		t.Fatal("broadcast did not wake the timed waiter")
	}
}

func TestRealtimeShutdownUnblocksEverything(t *testing.T) {
	env := NewRealtimeEnv(1)
	sem := env.NewSemaphore(1)
	mb := env.NewMailbox()
	gate := env.NewGate()
	env.Spawn("holder", func(p Proc) {
		sem.Acquire(p)
		p.Sleep(time.Hour)
	})
	env.Spawn("semWaiter", func(p Proc) { sem.Acquire(p) })
	env.Spawn("mbWaiter", func(p Proc) { mb.Recv(p) })
	env.Spawn("gateWaiter", func(p Proc) { gate.Wait(p) })
	time.Sleep(20 * time.Millisecond)
	finished := make(chan struct{})
	go func() {
		env.Shutdown()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung")
	}
}

func TestRealtimeNewRandConcurrentSafe(t *testing.T) {
	env := NewRealtimeEnv(1)
	defer env.Shutdown()
	rng := env.NewRand("shared")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				rng.Int63()
			}
		}()
	}
	wg.Wait()
}

// TestRealtimeGateBroadcastWithoutWaiterAllocatesNothing: an oplog
// append broadcasts its tail gate whether or not a getMore is parked,
// so the idle case must cost no allocation.
func TestRealtimeGateBroadcastWithoutWaiterAllocatesNothing(t *testing.T) {
	env := NewRealtimeEnv(1)
	defer env.Shutdown()
	gate := env.NewGate()
	if allocs := testing.AllocsPerRun(1000, gate.Broadcast); allocs != 0 {
		t.Fatalf("Broadcast with no waiter made %.1f allocations, want 0", allocs)
	}
}

// TestRealtimeWaitIgnoresStaleTick: with the module's pre-1.23 timer
// semantics a wait that Broadcast ended can leave a fired tick in the
// proc's reused timer channel. The next timed wait must not take that
// tick for its own timeout.
func TestRealtimeWaitIgnoresStaleTick(t *testing.T) {
	env := NewRealtimeEnv(1)
	defer env.Shutdown()
	gate := env.NewGate()
	p := env.Adhoc("waiter").(*rproc)
	// The state such a wait leaves behind: the timer fired and nobody
	// received its tick.
	p.timer = time.NewTimer(time.Nanosecond)
	time.Sleep(5 * time.Millisecond)
	const d = 30 * time.Millisecond
	start := time.Now()
	if gate.WaitTimeout(p, d) {
		t.Fatal("WaitTimeout reported broadcast, want timeout")
	}
	if got := time.Since(start); got < d {
		t.Fatalf("WaitTimeout(%v) returned after %v on a stale tick", d, got)
	}
	start = time.Now()
	p.Sleep(d)
	if got := time.Since(start); got < d {
		t.Fatalf("Sleep(%v) returned after %v", d, got)
	}
}

// TestRealtimeGateBroadcastEndsWaitThenTimeoutHolds: a wait ended by
// Broadcast, on the same proc and so the same timer, leaves the next
// WaitTimeout(d) its full d.
func TestRealtimeGateBroadcastEndsWaitThenTimeoutHolds(t *testing.T) {
	env := NewRealtimeEnv(1)
	defer env.Shutdown()
	gate := env.NewGate()
	p := env.Adhoc("waiter")
	const d = 20 * time.Millisecond
	for i := 0; i < 5; i++ {
		// Broadcast close to the timeout, so the tick and the close race.
		fired := make(chan struct{})
		bc := time.AfterFunc(d-time.Duration(i)*100*time.Microsecond, func() {
			gate.Broadcast()
			close(fired)
		})
		gate.WaitTimeout(p, d)
		if !bc.Stop() {
			<-fired // the broadcast must not land in the wait below
		}
		start := time.Now()
		if gate.WaitTimeout(p, d) {
			t.Fatal("WaitTimeout reported broadcast with none sent")
		}
		if got := time.Since(start); got < d {
			t.Fatalf("round %d: WaitTimeout(%v) returned after %v", i, d, got)
		}
	}
}

// TestRealtimeGateTimeoutThenBroadcast: a wait ended by its timeout
// leaves the gate able to wake the next waiter.
func TestRealtimeGateTimeoutThenBroadcast(t *testing.T) {
	env := NewRealtimeEnv(1)
	defer env.Shutdown()
	gate := env.NewGate()
	p := env.Adhoc("waiter")
	if gate.WaitTimeout(p, time.Millisecond) {
		t.Fatal("WaitTimeout reported broadcast, want timeout")
	}
	done := make(chan bool, 1)
	go func() { done <- gate.WaitTimeout(p, 10*time.Second) }()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	gate.Broadcast()
	select {
	case woke := <-done:
		if !woke {
			t.Fatal("WaitTimeout reported timeout, want broadcast")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Broadcast did not wake a waiter after an earlier timeout")
	}
}

// TestRealtimeGateStress runs timed and untimed waiters against
// concurrent broadcasters; under -race it checks the lazily made
// channel and the per-proc timers. Every waiter must finish: untimed
// ones are released by the broadcasters, which keep going until all
// waiters are done.
func TestRealtimeGateStress(t *testing.T) {
	env := NewRealtimeEnv(1)
	defer env.Shutdown()
	gate := env.NewGate()
	const waiters, rounds = 8, 200
	var wg sync.WaitGroup
	var woke, timedOut atomic.Int64
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		i := i
		env.Spawn("w", func(p Proc) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (i + r) % 3 {
				case 0:
					gate.Wait(p)
					woke.Add(1)
				case 1:
					if gate.WaitTimeout(p, time.Duration(r%5)*50*time.Microsecond+time.Microsecond) {
						woke.Add(1)
					} else {
						timedOut.Add(1)
					}
				default:
					p.Sleep(time.Duration(r%3) * 20 * time.Microsecond)
				}
			}
		})
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	var bg sync.WaitGroup
	for b := 0; b < 3; b++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-finished:
					return
				default:
				}
				gate.Broadcast()
				time.Sleep(30 * time.Microsecond)
			}
		}()
	}
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("gate stress hung")
	}
	bg.Wait()
	if woke.Load() == 0 || timedOut.Load() == 0 {
		t.Errorf("woke=%d timedOut=%d: want both paths exercised", woke.Load(), timedOut.Load())
	}
}
