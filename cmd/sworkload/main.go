// Command sworkload runs the paper's S staleness prober (§4.1.5)
// standalone against a wire server: a writer stamping wall-clock
// timestamps into a probe document and a reader comparing primary vs
// secondary values, printing the observed staleness distribution.
//
// Usage:
//
//	sworkload -addr 127.0.0.1:27099 -duration 30s
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"decongestant/internal/cluster"
	"decongestant/internal/driver"
	"decongestant/internal/obs"
	"decongestant/internal/sim"
	"decongestant/internal/storage"
	"decongestant/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:27099", "wire server address")
	duration := flag.Duration("duration", 30*time.Second, "how long to probe")
	writeEvery := flag.Duration("write-interval", 50*time.Millisecond, "writer stamp period")
	probeEvery := flag.Duration("probe-interval", 250*time.Millisecond, "reader probe period")
	flag.Parse()

	conn, err := wire.Dial(*addr)
	if err != nil {
		log.Fatalf("dial %s: %v", *addr, err)
	}
	defer conn.Close()
	env := sim.NewRealtimeEnv(time.Now().UnixNano())
	defer env.Shutdown()
	client := driver.NewClient(env, conn)

	var samples []time.Duration
	done := make(chan struct{})

	env.Spawn("writer", func(p sim.Proc) {
		for p.Now() < *duration {
			now := time.Now().UnixNano()
			client.Write(p, func(tx cluster.WriteTxn) (any, error) {
				return nil, tx.Set("sprobe", "cell", storage.D{"ts": now})
			})
			p.Sleep(*writeEvery)
		}
	})
	env.Spawn("reader", func(p sim.Proc) {
		defer close(done)
		read := func(pref driver.ReadPref) int64 {
			res, _, _, err := client.Read(p, driver.ReadOptions{Pref: pref},
				func(v cluster.ReadView) (any, error) {
					d, ok := v.FindByID("sprobe", "cell")
					if !ok {
						return int64(0), nil
					}
					return d.Int("ts"), nil
				})
			if err != nil {
				return -1
			}
			return res.(int64)
		}
		for p.Now() < *duration {
			p.Sleep(*probeEvery)
			primTS := read(driver.Primary)
			secTS := read(driver.Secondary)
			if primTS < 0 || secTS < 0 {
				continue
			}
			st := time.Duration(primTS - secTS)
			if st < 0 {
				st = 0
			}
			samples = append(samples, st)
		}
	})

	<-done
	if len(samples) == 0 {
		log.Fatal("no staleness samples collected")
	}
	fmt.Printf("samples: %d\n", len(samples))
	for _, q := range []float64{0.50, 0.80, 0.99, 1.0} {
		fmt.Printf("P%-3.0f staleness: %v\n", q*100, obs.PercentileOf(samples, q))
	}
}
