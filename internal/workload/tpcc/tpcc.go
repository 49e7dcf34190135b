package tpcc

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"decongestant/internal/driver"
	"decongestant/internal/sim"
	"decongestant/internal/workload"
)

// Mix is a transaction mix in whole percent; fields must sum to 100.
type Mix struct {
	StockLevel  int
	Delivery    int
	OrderStatus int
	Payment     int
	NewOrder    int
}

// StandardMix is the classic write-heavy TPC-C mix (Table 1, left).
func StandardMix() Mix {
	return Mix{StockLevel: 4, Delivery: 4, OrderStatus: 4, Payment: 43, NewOrder: 45}
}

// ReadWriteMix is the paper's read-write TPC-C: Stock Level boosted to
// 50% for a balance of read-only and update transactions (Table 1,
// right).
func ReadWriteMix() Mix {
	return Mix{StockLevel: 50, Delivery: 4, OrderStatus: 4, Payment: 20, NewOrder: 22}
}

// Total returns the sum of the mix's percentages.
func (m Mix) Total() int {
	return m.StockLevel + m.Delivery + m.OrderStatus + m.Payment + m.NewOrder
}

// pick chooses a transaction kind from the mix.
func (m Mix) pick(rng *rand.Rand) string {
	r := rng.Intn(m.Total())
	switch {
	case r < m.StockLevel:
		return KindStockLevel
	case r < m.StockLevel+m.Delivery:
		return KindDelivery
	case r < m.StockLevel+m.Delivery+m.OrderStatus:
		return KindOrderStatus
	case r < m.StockLevel+m.Delivery+m.OrderStatus+m.Payment:
		return KindPayment
	default:
		return KindNewOrder
	}
}

// Pool drives closed-loop TPC-C terminal processes. Client count can
// change at run time, as in Figure 4's burst experiment.
type Pool struct {
	env   sim.Env
	exec  workload.Executor
	obs   workload.Observer
	scale Scale

	mu      sync.Mutex
	mix     Mix
	active  int
	spawned int
	ran     map[string]int // transactions run, per kind
	failed  map[string]int // of those, the ones that returned an error
}

// NewPool creates a TPC-C terminal pool; call SetClients to start.
func NewPool(env sim.Env, exec workload.Executor, obs workload.Observer, scale Scale, mix Mix) *Pool {
	if obs == nil {
		obs = workload.NopObserver{}
	}
	return &Pool{env: env, exec: exec, obs: obs, scale: scale, mix: mix,
		ran: map[string]int{}, failed: map[string]int{}}
}

// SetClients adjusts the number of active closed-loop terminals.
func (pl *Pool) SetClients(n int) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.active = n
	for pl.spawned < n {
		id := pl.spawned
		pl.spawned++
		pl.env.Spawn(fmt.Sprintf("tpcc/terminal-%d", id), func(p sim.Proc) {
			pl.terminalLoop(p, id)
		})
	}
}

// Failures returns how many transactions of the given kind failed and
// how many ran. A failed transaction is not reported to the Observer;
// an intentional NewOrder rollback counts as run, not failed.
func (pl *Pool) Failures(kind string) (failed, ran int) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.failed[kind], pl.ran[kind]
}

// Active returns the number of active terminals.
func (pl *Pool) Active() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.active
}

func (pl *Pool) terminalLoop(p sim.Proc, id int) {
	rng := pl.env.NewRand(fmt.Sprintf("tpcc-terminal-%d", id))
	for {
		pl.mu.Lock()
		running := id < pl.active
		mix := pl.mix
		pl.mu.Unlock()
		if !running {
			p.Sleep(100 * time.Millisecond)
			continue
		}
		pl.doOne(p, rng, mix)
	}
}

func (pl *Pool) doOne(p sim.Proc, rng *rand.Rand, mix Mix) {
	kind := mix.pick(rng)
	var (
		pref driver.ReadPref
		lat  time.Duration
		err  error
	)
	read := false
	switch kind {
	case KindStockLevel:
		pref, lat, err = StockLevel(p, pl.exec, pl.scale, rng)
		read = true
	case KindOrderStatus:
		pref, lat, err = OrderStatus(p, pl.exec, pl.scale, rng)
		read = true
	case KindDelivery:
		lat, err = Delivery(p, pl.exec, pl.scale, rng)
	case KindPayment:
		lat, err = Payment(p, pl.exec, pl.scale, rng)
	default:
		lat, err = NewOrder(p, pl.exec, pl.scale, rng)
	}
	pl.mu.Lock()
	pl.ran[kind]++
	if err != nil {
		pl.failed[kind]++
	}
	pl.mu.Unlock()
	switch {
	case err != nil:
		return
	case read:
		pl.obs.ObserveRead(p.Now(), pref, lat, kind)
	default:
		pl.obs.ObserveWrite(p.Now(), lat, kind)
	}
}
