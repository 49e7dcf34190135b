// Command mongosd serves a sharded cluster's query router over TCP
// using the wire protocol. It dials every shard's replsetd, builds a
// chunk-routed sharding.Router over those connections (one
// Decongestant system per shard), and answers the same op set a
// single replica set does — plus the topology ops list_shards and
// chunk_map, and the admin op move_chunk for live chunk migration.
//
// Usage:
//
//	replsetd -listen 127.0.0.1:27101 &
//	replsetd -listen 127.0.0.1:27102 &
//	mongosd -listen 127.0.0.1:27100 -shards 127.0.0.1:27101,127.0.0.1:27102 -split doc500
//
// -split (comma-separated shard-key split points) cuts the _id key
// space into chunks, assigned to the shards round-robin; chunks can
// then be split and live-migrated while serving traffic. It is
// required with more than one shard; a single shard owns the whole
// key space without it.
//
// The -http observability surface and the admission-control flags
// mirror replsetd's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"decongestant/internal/cache"
	"decongestant/internal/core"
	"decongestant/internal/driver"
	"decongestant/internal/obs/trace"
	"decongestant/internal/sharding"
	"decongestant/internal/sim"
	"decongestant/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:27100", "address to listen on")
	httpAddr := flag.String("http", "", "address for the HTTP observability endpoint (empty disables)")
	shards := flag.String("shards", "", "comma-separated shard server addresses (required)")
	splits := flag.String("split", "",
		"comma-separated shard-key split points; the chunks between them go to the shards round-robin (required with more than one shard)")
	seed := flag.Int64("seed", 1, "environment seed")
	cacheOn := flag.Bool("cache", false,
		"enable the router-side freshness-priced read cache: bounded point reads spend the client's staleness budget locally before touching a shard")
	cacheBytes := flag.Int("cache-bytes", 0, "cache capacity in bytes before LRU eviction (0 = the 8 MiB default)")
	cacheGuard := flag.Int64("cache-guard", 0,
		"cache validity guard band in seconds, subtracted from every entry's remaining staleness budget (0 = the 1s default)")
	maxConns := flag.Int("max-conns", 0, "max simultaneous wire connections (0 = unlimited)")
	maxInflight := flag.Int("max-inflight", 0, "max in-service requests per connection (0 = unlimited)")
	shedInflight := flag.Int("shed-inflight", 0,
		"server-wide in-service request ceiling past which requests are shed with a retryable error (0 disables)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close connections idle this long (0 disables)")
	slowOp := flag.Duration("slow-op", 0, "log requests that take at least this long (0 disables)")
	currentOp := flag.Bool("current-op", true, "maintain the currentOp registry of in-dispatch requests")
	metricsEvery := flag.Duration("metrics-interval", 0,
		"log the observability snapshot at this interval (0 disables; it is always logged on shutdown)")
	flag.Parse()

	logger := log.New(os.Stderr, "mongosd: ", log.LstdFlags)
	addrs := splitList(*shards)
	if len(addrs) == 0 {
		logger.Fatalf("need at least one shard address (-shards host:port,host:port,...)")
	}
	sp, err := splitPoints(len(addrs), *splits)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mongosd: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	env := sim.NewRealtimeEnv(*seed)
	conns := make([]driver.Conn, len(addrs))
	for i, addr := range addrs {
		c, err := wire.Dial(addr)
		if err != nil {
			logger.Fatalf("dial shard %d (%s): %v", i, addr, err)
		}
		defer c.Close()
		conns[i] = c
	}

	auth := sharding.NewChunkAuthority(env, sharding.NewChunkMap(sp, len(conns)))
	mongos := sharding.NewMongos(env, conns, addrs, auth, core.DefaultParams(), sharding.RouterOptions{})
	if *cacheOn {
		rc := mongos.Router().EnableCache(cache.Config{MaxBytes: *cacheBytes, GuardBandSecs: *cacheGuard})
		eff := rc.EffectiveConfig()
		logger.Printf("freshness-priced read cache enabled: %d bytes, %ds guard band", eff.MaxBytes, eff.GuardBandSecs)
	}
	srv := wire.NewBackendServer(env, mongos, logger, wire.ServerConfig{
		IdleTimeout:        *idleTimeout,
		MaxConns:           *maxConns,
		MaxInflightPerConn: *maxInflight,
		ShedInflight:       *shedInflight,
		SlowOpThreshold:    *slowOp,
		CurrentOp:          *currentOp,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	logger.Printf("routing %d shards over %d chunks (table version %d) on %s",
		len(conns), auth.Map().NumChunks(), auth.Version(), ln.Addr())

	if *httpAddr != "" {
		reg, tr := mongos.Metrics(), mongos.Tracer()
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.Write([]byte(reg.Snapshot().Prometheus()))
		})
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
			raw, err := reg.Snapshot().JSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(raw)
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("ok\n"))
		})
		writeJSON := func(w http.ResponseWriter, v any) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(v)
		}
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
			if idStr := r.URL.Query().Get("id"); idStr != "" {
				id, err := trace.ParseID(idStr)
				if err != nil {
					http.Error(w, "bad trace id: "+err.Error(), http.StatusBadRequest)
					return
				}
				writeJSON(w, map[string]any{"trace": idStr, "spans": tr.TraceSpans(id)})
				return
			}
			limit := 0
			if ls := r.URL.Query().Get("limit"); ls != "" {
				if n, err := strconv.Atoi(ls); err == nil {
					limit = n
				}
			}
			pinned := []string{}
			for _, id := range tr.Pinned() {
				pinned = append(pinned, trace.IDString(id))
			}
			writeJSON(w, map[string]any{"pinned": pinned, "spans": tr.Recent(limit)})
		})
		mux.HandleFunc("/debug/currentOp", func(w http.ResponseWriter, r *http.Request) {
			ops := srv.CurrentOps()
			if ops == nil {
				ops = []trace.OpInfo{}
			}
			writeJSON(w, map[string]any{"inprog": ops})
		})
		mux.HandleFunc("/debug/chunks", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, map[string]any{"map": auth.Map()})
		})
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			logger.Fatalf("http listen: %v", err)
		}
		logger.Printf("scrape endpoints on http://%s/metrics (Prometheus), /metrics.json, /healthz, /debug/trace, /debug/currentOp, /debug/chunks", hln.Addr())
		go func() {
			if err := http.Serve(hln, mux); err != nil {
				logger.Printf("http serve: %v", err)
			}
		}()
	}

	if *metricsEvery > 0 {
		go func() {
			for range time.Tick(*metricsEvery) {
				logger.Printf("metrics snapshot:\n%s", mongos.Metrics().Snapshot().Text())
			}
		}()
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Printf("shutting down; final metrics snapshot:\n%s", mongos.Metrics().Snapshot().Text())
		srv.Close()
		env.Shutdown()
	}()

	if err := srv.Serve(ln); err != nil {
		logger.Fatalf("serve: %v", err)
	}
}

// splitPoints parses the -split flag for numShards shards. More than
// one shard needs split points: without them every key would land on
// shard 0.
func splitPoints(numShards int, flagValue string) ([]string, error) {
	sp := splitList(flagValue)
	if numShards > 1 && len(sp) == 0 {
		return nil, fmt.Errorf("-split is required with %d shards: give the shard-key split points, e.g. -split doc500", numShards)
	}
	return sp, nil
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
