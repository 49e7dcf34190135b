// Package sim provides a deterministic discrete-event simulation kernel
// with goroutine-based processes, plus a real-time implementation of the
// same interfaces so identical process code can run against the wall
// clock.
//
// The virtual environment runs processes one at a time
// (run-to-completion between blocking points), ordered by virtual time
// and a sequence number, so a simulation with a fixed seed is fully
// deterministic. Processes block only through environment primitives:
// Proc.Sleep, Semaphore.Acquire, Gate.Wait and Mailbox.Recv.
package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Proc is the handle a running process uses to interact with its
// environment. A Proc must only be used from the goroutine running the
// process function it was passed to.
type Proc interface {
	// Env returns the environment this process runs in.
	Env() Env
	// Now returns the current (virtual or wall-clock) time since the
	// environment started.
	Now() time.Duration
	// Sleep suspends the process for d. Negative or zero durations
	// yield without advancing time.
	Sleep(d time.Duration)
	// Name returns the name the process was spawned with.
	Name() string
}

// Env is an execution environment for processes. Implementations:
// NewEnv (virtual time) and NewRealtimeEnv (wall clock).
type Env interface {
	// Now returns the time since the environment started.
	Now() time.Duration
	// Spawn starts a new process. In the virtual environment the
	// process begins at the current virtual time; it is safe to call
	// from inside another process or from outside Run.
	Spawn(name string, fn func(Proc))
	// NewSemaphore creates a counting semaphore with the given
	// capacity (number of simultaneous holders).
	NewSemaphore(capacity int) Semaphore
	// NewGate creates a broadcast condition.
	NewGate() Gate
	// NewMailbox creates an unbounded FIFO message queue.
	NewMailbox() Mailbox
	// NewRand returns a deterministic (for the virtual env) random
	// source derived from the environment seed and the given name, so
	// each component's randomness is independent of spawn order.
	NewRand(name string) *rand.Rand
}

// Semaphore is a counting semaphore. Waiters are served FIFO.
type Semaphore interface {
	// Acquire blocks p until a slot is available and takes it.
	Acquire(p Proc)
	// TryAcquire takes a slot if one is free without blocking.
	TryAcquire() bool
	// Release returns a slot. It may be called from any process (or,
	// in the virtual env, from scheduler callbacks).
	Release()
	// InUse reports the number of slots currently held.
	InUse() int
	// Waiting reports the number of processes blocked in Acquire.
	Waiting() int
}

// Gate is a broadcast condition: Wait blocks until the next Broadcast.
// A Broadcast wakes only the processes already waiting; it is not
// remembered for later ones.
type Gate interface {
	Wait(p Proc)
	// WaitTimeout blocks until the next Broadcast or until d elapses,
	// whichever comes first, and reports whether it was woken by a
	// Broadcast. Non-positive d waits without a timeout (like Wait).
	// An awaitData getMore parked on an oplog tail uses the timeout as
	// a liveness backstop, so a missed signal costs one poll interval,
	// never a hang.
	WaitTimeout(p Proc, d time.Duration) bool
	// Broadcast wakes every waiter. It never blocks, so it may run
	// under a lock (the oplog's append hook does). On the real clock a
	// Broadcast with no waiter allocates nothing, and timed waits reuse
	// their proc's timer.
	Broadcast()
}

// Mailbox is an unbounded FIFO queue of messages with blocking receive.
type Mailbox interface {
	// Send enqueues v and wakes one receiver if any is blocked. It
	// never blocks.
	Send(v any)
	// Recv blocks p until a message is available and dequeues it.
	Recv(p Proc) any
	// Len reports the number of queued messages.
	Len() int
}

// ErrStopped is the panic value delivered to processes when their
// environment shuts down; the process wrapper recovers it.
type stoppedError struct{}

func (stoppedError) Error() string { return "sim: environment stopped" }

// ErrStopped reports whether a recovered panic value came from
// environment shutdown.
func ErrStopped(v any) bool {
	_, ok := v.(stoppedError)
	return ok
}

// seedFor derives a 64-bit seed from a base seed and a component name.
func seedFor(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, name)
	return int64(h.Sum64())
}
