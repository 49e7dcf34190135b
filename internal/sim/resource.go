package sim

import "time"

// Resource models a server with a fixed number of identical service
// slots (e.g. CPU cores, disk channels). Callers occupy a slot for a
// service time; when all slots are busy, callers queue FIFO, which is
// what produces congestion latency under load.
type Resource struct {
	sem Semaphore
}

// NewResource creates a resource with the given number of slots.
func NewResource(env Env, slots int) *Resource {
	return &Resource{sem: env.NewSemaphore(slots)}
}

// Use occupies one slot for service duration d, queueing if necessary.
// It returns the total time spent (queueing + service).
func (r *Resource) Use(p Proc, d time.Duration) time.Duration {
	start := p.Now()
	r.sem.Acquire(p)
	p.Sleep(d)
	r.sem.Release()
	return p.Now() - start
}

// Acquire takes a slot without a fixed service time; pair with Release.
func (r *Resource) Acquire(p Proc) { r.sem.Acquire(p) }

// Release returns a slot taken with Acquire.
func (r *Resource) Release() { r.sem.Release() }

// InUse reports busy slots; Waiting reports the queue length.
func (r *Resource) InUse() int   { return r.sem.InUse() }
func (r *Resource) Waiting() int { return r.sem.Waiting() }

// Every spawns a process that invokes fn every interval until the
// environment shuts down. The first invocation happens after one
// interval.
func Every(env Env, name string, interval time.Duration, fn func(Proc)) {
	env.Spawn(name, func(p Proc) {
		for {
			p.Sleep(interval)
			fn(p)
		}
	})
}
