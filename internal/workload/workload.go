// Package workload defines the pieces shared by the benchmark
// workloads (YCSB, TPC-C, the S staleness prober): the Executor
// abstraction that routes operations either through a hard-coded Read
// Preference baseline or through Decongestant's Router, and the
// Observer interface experiments use to collect measurements.
package workload

import (
	"math/rand"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/sim"
)

// Executor routes workload operations to the replica set. The three
// systems compared throughout the paper's evaluation are three
// Executors: FixedPref(Primary), FixedPref(Secondary), and Router.
type Executor interface {
	// Read runs a read-only body somewhere according to the executor's
	// policy, returning the result, where it went, and the end-to-end
	// latency.
	Read(p sim.Proc, fn func(v cluster.ReadView) (any, error)) (any, driver.ReadPref, time.Duration, error)
	// Write runs a write transaction at the primary.
	Write(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, time.Duration, error)
}

// FixedPref is the state-of-practice baseline: every read is
// hard-coded with one Read Preference (§4.1.3).
type FixedPref struct {
	Client *driver.Client
	Pref   driver.ReadPref
}

// Read routes with the fixed preference.
func (f FixedPref) Read(p sim.Proc, fn func(v cluster.ReadView) (any, error)) (any, driver.ReadPref, time.Duration, error) {
	res, _, lat, err := f.Client.Read(p, driver.ReadOptions{Pref: f.Pref}, fn)
	return res, f.Pref, lat, err
}

// Write routes to the primary.
func (f FixedPref) Write(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, time.Duration, error) {
	return f.Client.Write(p, fn)
}

// RouterExec routes reads through Decongestant's Router.
type RouterExec struct {
	Router *core.Router
}

// Read flips the router's biased coin and reports the latency back to
// the Read Balancer.
func (r RouterExec) Read(p sim.Proc, fn func(v cluster.ReadView) (any, error)) (any, driver.ReadPref, time.Duration, error) {
	return r.Router.Read(p, fn)
}

// Write routes to the primary.
func (r RouterExec) Write(p sim.Proc, fn func(tx cluster.WriteTxn) (any, error)) (any, time.Duration, error) {
	return r.Router.Write(p, fn)
}

// Observer receives one event per completed operation. Implementations
// must tolerate calls from multiple workload processes.
type Observer interface {
	// ObserveRead reports a completed read-only operation: completion
	// time, where it was routed, end-to-end latency, and the workload
	// specific kind ("read", "StockLevel", ...).
	ObserveRead(at time.Duration, pref driver.ReadPref, lat time.Duration, kind string)
	// ObserveWrite reports a completed write transaction.
	ObserveWrite(at time.Duration, lat time.Duration, kind string)
}

// NopObserver discards all events.
type NopObserver struct{}

func (NopObserver) ObserveRead(time.Duration, driver.ReadPref, time.Duration, string) {}
func (NopObserver) ObserveWrite(time.Duration, time.Duration, string)                 {}

// RandString fills a deterministic alphanumeric string of length n —
// YCSB field payloads and TPC-C data strings. It draws 10 characters
// per 64-bit random word (6 bits each), keeping payload generation off
// the benchmark's critical path. Up to 256 characters are generated on
// the stack, so the string is the call's one allocation.
func RandString(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
	var stack [256]byte
	var b []byte
	if n <= len(stack) {
		b = stack[:n]
	} else {
		b = make([]byte, n)
	}
	var word uint64
	var bits int
	for i := range b {
		if bits < 6 {
			word = rng.Uint64()
			bits = 60
		}
		b[i] = alphabet[word&63]
		word >>= 6
		bits -= 6
	}
	return string(b)
}
