package sim

import (
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	var woke time.Duration
	env.Spawn("sleeper", func(p Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	env.Run(time.Minute)
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if env.Now() != time.Minute {
		t.Fatalf("env.Now() = %v, want 1m (idle time advances to horizon)", env.Now())
	}
}

func TestZeroAndNegativeSleepDoNotAdvanceTime(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	var at0, atNeg time.Duration
	env.Spawn("p", func(p Proc) {
		p.Sleep(0)
		at0 = p.Now()
		p.Sleep(-time.Second)
		atNeg = p.Now()
	})
	env.Run(time.Second)
	if at0 != 0 || atNeg != 0 {
		t.Fatalf("time advanced on zero/negative sleep: %v %v", at0, atNeg)
	}
}

func TestEventOrderingIsFIFOAtSameInstant(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.Spawn("p", func(p Proc) {
			p.Sleep(time.Second) // all wake at t=1s
			order = append(order, i)
		})
	}
	env.Run(2 * time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d]=%d, spawn order not preserved: %v", i, v, order)
		}
	}
}

func TestRunResumable(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	ticks := 0
	env.Spawn("ticker", func(p Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	env.Run(3 * time.Second)
	if ticks != 3 {
		t.Fatalf("after first Run: ticks=%d, want 3", ticks)
	}
	env.Run(10 * time.Second)
	if ticks != 10 {
		t.Fatalf("after second Run: ticks=%d, want 10", ticks)
	}
}

func TestRunHorizonDoesNotExecuteLaterEvents(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	fired := false
	env.Spawn("late", func(p Proc) {
		p.Sleep(10 * time.Second)
		fired = true
	})
	env.Run(5 * time.Second)
	if fired {
		t.Fatal("event beyond horizon executed")
	}
	if got := env.Now(); got != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", got)
	}
}

func TestSemaphoreSerializesAndQueuesFIFO(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	sem := env.NewSemaphore(1)
	var finished []int
	for i := 0; i < 3; i++ {
		i := i
		env.Spawn("worker", func(p Proc) {
			sem.Acquire(p)
			p.Sleep(time.Second)
			sem.Release()
			finished = append(finished, i)
		})
	}
	end := env.Run(time.Minute)
	_ = end
	if len(finished) != 3 {
		t.Fatalf("finished %d workers, want 3", len(finished))
	}
	for i, v := range finished {
		if v != i {
			t.Fatalf("completion order %v not FIFO", finished)
		}
	}
	if env.events.Len() != 0 {
		t.Fatalf("leftover events: %d", env.events.Len())
	}
}

func TestSemaphoreCapacityTwoOverlaps(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	sem := env.NewSemaphore(2)
	var doneAt []time.Duration
	for i := 0; i < 4; i++ {
		env.Spawn("w", func(p Proc) {
			sem.Acquire(p)
			p.Sleep(time.Second)
			sem.Release()
			doneAt = append(doneAt, p.Now())
		})
	}
	env.Run(time.Minute)
	// 4 jobs of 1s on 2 slots: two finish at 1s, two at 2s.
	want := []time.Duration{time.Second, time.Second, 2 * time.Second, 2 * time.Second}
	if len(doneAt) != 4 {
		t.Fatalf("completed %d, want 4", len(doneAt))
	}
	for i := range want {
		if doneAt[i] != want[i] {
			t.Fatalf("doneAt=%v, want %v", doneAt, want)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	sem := env.NewSemaphore(1)
	var got1, got2, got3 bool
	env.Spawn("p", func(p Proc) {
		got1 = sem.TryAcquire()
		got2 = sem.TryAcquire()
		sem.Release()
		got3 = sem.TryAcquire()
	})
	env.Run(time.Second)
	if !got1 || got2 || !got3 {
		t.Fatalf("TryAcquire sequence = %v %v %v, want true false true", got1, got2, got3)
	}
}

func TestSemaphoreReleaseWithoutAcquirePanics(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	sem := env.NewSemaphore(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sem.Release()
}

func TestGateBroadcastWakesAllWaiters(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	gate := env.NewGate()
	woke := 0
	for i := 0; i < 5; i++ {
		env.Spawn("waiter", func(p Proc) {
			gate.Wait(p)
			woke++
		})
	}
	env.Spawn("caster", func(p Proc) {
		p.Sleep(time.Second)
		gate.Broadcast()
	})
	env.Run(2 * time.Second)
	if woke != 5 {
		t.Fatalf("woke=%d, want 5", woke)
	}
}

func TestGateWaitTimeoutExpires(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	gate := env.NewGate()
	var fired bool
	var at time.Duration
	env.Spawn("waiter", func(p Proc) {
		fired = gate.WaitTimeout(p, time.Second)
		at = p.Now()
	})
	env.Run(5 * time.Second)
	if fired {
		t.Fatal("WaitTimeout reported broadcast, want timeout")
	}
	if at != time.Second {
		t.Fatalf("woke at %v, want 1s", at)
	}
}

func TestGateWaitTimeoutBroadcastWinsAndTimerIsInert(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	gate := env.NewGate()
	wakes := 0
	var fired bool
	var at time.Duration
	env.Spawn("waiter", func(p Proc) {
		fired = gate.WaitTimeout(p, 2*time.Second)
		wakes++
		at = p.Now()
		// Park again with no timeout: the first wait's stale timer
		// firing at t=2s must not wake this wait.
		gate.Wait(p)
		wakes++
	})
	env.Spawn("caster", func(p Proc) {
		p.Sleep(time.Second)
		gate.Broadcast()
	})
	env.Run(10 * time.Second)
	if !fired {
		t.Fatal("WaitTimeout reported timeout, want broadcast")
	}
	if at != time.Second {
		t.Fatalf("woke at %v, want 1s", at)
	}
	if wakes != 1 {
		t.Fatalf("wakes=%d, want 1 (stale timer must not fire the second wait)", wakes)
	}
}

func TestMailboxFIFOAndBlockingRecv(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	mb := env.NewMailbox()
	var got []int
	var recvTimes []time.Duration
	env.Spawn("recv", func(p Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Recv(p).(int))
			recvTimes = append(recvTimes, p.Now())
		}
	})
	env.Spawn("send", func(p Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			mb.Send(i)
		}
	})
	env.Run(time.Minute)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v, want [0 1 2]", got)
	}
	for i, ts := range recvTimes {
		if want := time.Duration(i+1) * time.Second; ts != want {
			t.Fatalf("recv %d at %v, want %v", i, ts, want)
		}
	}
}

func TestMailboxMultipleReceivers(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	mb := env.NewMailbox()
	received := 0
	for i := 0; i < 3; i++ {
		env.Spawn("recv", func(p Proc) {
			mb.Recv(p)
			received++
		})
	}
	env.Spawn("send", func(p Proc) {
		p.Sleep(time.Second)
		for i := 0; i < 3; i++ {
			mb.Send(i)
		}
	})
	env.Run(time.Minute)
	if received != 3 {
		t.Fatalf("received=%d, want 3", received)
	}
	if mb.Len() != 0 {
		t.Fatalf("mailbox not drained: %d", mb.Len())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		env := NewEnv(42)
		defer env.Shutdown()
		rng := env.NewRand("jitter")
		sem := env.NewSemaphore(2)
		var events []time.Duration
		for i := 0; i < 20; i++ {
			env.Spawn("w", func(p Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(rng.Intn(1000)) * time.Millisecond)
					sem.Acquire(p)
					p.Sleep(time.Duration(rng.Intn(100)) * time.Millisecond)
					sem.Release()
					events = append(events, p.Now())
				}
			})
		}
		env.Run(time.Minute)
		return events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNewRandIndependentOfSpawnOrder(t *testing.T) {
	e1 := NewEnv(7)
	e2 := NewEnv(7)
	defer e1.Shutdown()
	defer e2.Shutdown()
	_ = e1.NewRand("other") // extra draw stream in e1 only
	r1 := e1.NewRand("target")
	r2 := e2.NewRand("target")
	for i := 0; i < 100; i++ {
		if r1.Int63() != r2.Int63() {
			t.Fatal("named rand streams differ between envs with same seed")
		}
	}
}

func TestShutdownReleasesBlockedProcesses(t *testing.T) {
	env := NewEnv(1)
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
	env.Run(time.Second)
	env.Shutdown() // must not hang
	if len(env.procs) != 0 {
		t.Fatalf("%d processes alive after shutdown", len(env.procs))
	}
}

func TestShutdownIdempotentAndSpawnAfterShutdownIgnored(t *testing.T) {
	env := NewEnv(1)
	env.Spawn("p", func(p Proc) { p.Sleep(time.Hour) })
	env.Run(time.Second)
	env.Shutdown()
	env.Shutdown()
	env.Spawn("late", func(p Proc) { t.Error("late process ran") })
	env.Run(2 * time.Second)
}

func TestAfterCallback(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	var at time.Duration
	env.After(3*time.Second, func() { at = env.Now() })
	env.Run(time.Minute)
	if at != 3*time.Second {
		t.Fatalf("callback at %v, want 3s", at)
	}
}

func TestSpawnInsideProcess(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	var childAt time.Duration
	env.Spawn("parent", func(p Proc) {
		p.Sleep(2 * time.Second)
		p.Env().Spawn("child", func(c Proc) {
			c.Sleep(time.Second)
			childAt = c.Now()
		})
	})
	env.Run(time.Minute)
	if childAt != 3*time.Second {
		t.Fatalf("child finished at %v, want 3s", childAt)
	}
}

func TestEverySpawnsPeriodicProcess(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	count := 0
	Every(env, "tick", time.Second, func(p Proc) { count++ })
	env.Run(10*time.Second + time.Millisecond)
	if count != 10 {
		t.Fatalf("count=%d, want 10", count)
	}
}

func TestResourceUseReturnsQueueingPlusService(t *testing.T) {
	env := NewEnv(1)
	defer env.Shutdown()
	res := NewResource(env, 1)
	var lat []time.Duration
	for i := 0; i < 3; i++ {
		env.Spawn("w", func(p Proc) {
			lat = append(lat, res.Use(p, time.Second))
		})
	}
	env.Run(time.Minute)
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	for i := range want {
		if lat[i] != want[i] {
			t.Fatalf("latencies %v, want %v", lat, want)
		}
	}
}
