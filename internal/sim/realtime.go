package sim

import (
	"math/rand"
	"sync"
	"time"
)

// RealtimeEnv runs processes as ordinary goroutines against the wall
// clock. It implements Env so the same cluster and workload code that
// runs in virtual time can serve real traffic (used by the TCP wire
// server). It is safe for concurrent use.
type RealtimeEnv struct {
	seed  int64
	start time.Time
	mu    sync.Mutex
	wg    sync.WaitGroup
	done  chan struct{}
	once  sync.Once
}

// NewRealtimeEnv creates a wall-clock environment.
func NewRealtimeEnv(seed int64) *RealtimeEnv {
	return &RealtimeEnv{seed: seed, start: time.Now(), done: make(chan struct{})}
}

// Now returns the wall-clock time since the environment started.
func (e *RealtimeEnv) Now() time.Duration { return time.Since(e.start) }

// rproc is one real-clock process. A Proc is used by one goroutine at
// a time, so the proc owns one timer that every Sleep and gate
// WaitTimeout re-arms instead of allocating a fresh one per wait.
type rproc struct {
	env   *RealtimeEnv
	name  string
	timer *time.Timer // nil until the first timed wait
}

func (p *rproc) Env() Env           { return p.env }
func (p *rproc) Name() string       { return p.name }
func (p *rproc) Now() time.Duration { return p.env.Now() }
func (p *rproc) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	p.wait(nil, d)
}

// wait blocks until ch is closed (a nil ch never is) or d elapses, and
// reports whether ch won. The module's go version keeps the pre-1.23
// timer semantics: Stop does not drain a tick that already fired, so a
// wait that ch ended may leave one buffered in the proc's timer
// channel. Each wait therefore takes its own deadline and discards any
// tick that arrives before it.
func (p *rproc) wait(ch <-chan struct{}, d time.Duration) bool {
	deadline := time.Now().Add(d)
	t := p.timer
	if t == nil {
		t = time.NewTimer(d)
		p.timer = t
	} else {
		t.Reset(d)
	}
	for {
		select {
		case <-ch:
			if !t.Stop() {
				select { // drain a tick that fired while ch won
				case <-t.C:
				default:
				}
			}
			return true
		case now := <-t.C:
			if now.Before(deadline) {
				continue // a stale tick from an earlier wait
			}
			return false
		case <-p.env.done:
			t.Stop()
			panic(stoppedError{})
		}
	}
}

// Spawn starts fn on a new goroutine.
func (e *RealtimeEnv) Spawn(name string, fn func(Proc)) {
	select {
	case <-e.done:
		return
	default:
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer func() {
			if r := recover(); r != nil && !ErrStopped(r) {
				panic(r)
			}
		}()
		fn(&rproc{env: e, name: name})
	}()
}

// Adhoc returns a Proc usable from an arbitrary goroutine (e.g. a
// network connection handler) without going through Spawn. The caller
// owns the goroutine's lifetime; Shutdown interrupts the proc's
// blocking operations like any other.
func (e *RealtimeEnv) Adhoc(name string) Proc {
	return &rproc{env: e, name: name}
}

// Shutdown stops all processes blocked in environment primitives and
// waits for them to exit.
func (e *RealtimeEnv) Shutdown() {
	e.once.Do(func() { close(e.done) })
	e.wg.Wait()
}

// NewRand returns a rand.Rand seeded from the environment seed and
// name. The source is wrapped with a mutex so multiple goroutines may
// share it.
func (e *RealtimeEnv) NewRand(name string) *rand.Rand {
	return rand.New(&lockedSource{src: rand.NewSource(seedFor(e.seed, name)).(rand.Source64)})
}

type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// ---- Semaphore ----

type rsem struct {
	env   *RealtimeEnv
	slots chan struct{}
	mu    sync.Mutex
	wait  int
}

// NewSemaphore creates a channel-backed counting semaphore.
func (e *RealtimeEnv) NewSemaphore(capacity int) Semaphore {
	if capacity < 1 {
		panic("sim: semaphore capacity must be >= 1")
	}
	return &rsem{env: e, slots: make(chan struct{}, capacity)}
}

func (s *rsem) Acquire(p Proc) {
	s.mu.Lock()
	s.wait++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.wait--
		s.mu.Unlock()
	}()
	select {
	case s.slots <- struct{}{}:
	case <-s.env.done:
		panic(stoppedError{})
	}
}

func (s *rsem) TryAcquire() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *rsem) Release() { <-s.slots }

func (s *rsem) InUse() int { return len(s.slots) }

func (s *rsem) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wait
}

// ---- Gate ----

// rgate is a broadcast condition over a channel that Broadcast closes.
// The channel is made only when a waiter arrives, so a Broadcast that
// finds no waiter (an oplog append nobody is tailing, say) allocates
// nothing.
type rgate struct {
	env *RealtimeEnv
	mu  sync.Mutex
	ch  chan struct{} // nil while no waiter is parked
}

// NewGate creates a broadcast condition.
func (e *RealtimeEnv) NewGate() Gate {
	return &rgate{env: e}
}

// waitCh returns the channel the next Broadcast closes.
func (g *rgate) waitCh() chan struct{} {
	g.mu.Lock()
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
	ch := g.ch
	g.mu.Unlock()
	return ch
}

func (g *rgate) Wait(p Proc) { g.WaitTimeout(p, 0) }

func (g *rgate) WaitTimeout(p Proc, d time.Duration) bool {
	ch := g.waitCh()
	if d <= 0 {
		select {
		case <-ch:
			return true
		case <-g.env.done:
			panic(stoppedError{})
		}
	}
	rp, ok := p.(*rproc)
	if !ok {
		// A wrapped or nil proc has no timer to reuse.
		rp = &rproc{env: g.env}
	}
	return rp.wait(ch, d)
}

func (g *rgate) Broadcast() {
	g.mu.Lock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
	g.mu.Unlock()
}

// ---- Mailbox ----

type rmailbox struct {
	env   *RealtimeEnv
	mu    sync.Mutex
	queue []any
	avail chan struct{} // capacity 1, signaled when queue non-empty
}

// NewMailbox creates an unbounded FIFO message queue.
func (e *RealtimeEnv) NewMailbox() Mailbox {
	return &rmailbox{env: e, avail: make(chan struct{}, 1)}
}

func (m *rmailbox) Send(v any) {
	m.mu.Lock()
	m.queue = append(m.queue, v)
	m.mu.Unlock()
	select {
	case m.avail <- struct{}{}:
	default:
	}
}

func (m *rmailbox) Recv(p Proc) any {
	for {
		m.mu.Lock()
		if len(m.queue) > 0 {
			v := m.queue[0]
			m.queue = m.queue[1:]
			nonEmpty := len(m.queue) > 0
			m.mu.Unlock()
			if nonEmpty {
				select {
				case m.avail <- struct{}{}:
				default:
				}
			}
			return v
		}
		m.mu.Unlock()
		select {
		case <-m.avail:
		case <-m.env.done:
			panic(stoppedError{})
		}
	}
}

func (m *rmailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}
