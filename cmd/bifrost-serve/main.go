// Command bifrost-serve exposes the simulation farm as a batch service: an
// HTTP + JSON-lines API for running layer simulations concurrently with
// content-addressed result caching, so sweep clients (and repeated
// identical requests from different clients) never simulate the same
// configuration twice.
//
// Usage:
//
//	bifrost-serve -addr :8087 -workers 8
//
//	# persistent, bounded caching: results survive restarts — a restarted
//	# server answers previously computed jobs from disk with zero
//	# simulator executions and byte-identical responses
//	bifrost-serve -cache-dir /var/cache/bifrost \
//	  -cache-max-entries 10000 -cache-max-bytes 256000000 \
//	  -cache-disk-max-bytes 10000000000
//
//	# operational bounds: reject work beyond 4096 queued jobs (HTTP 429 +
//	# Retry-After), time out jobs stuck past 30s (HTTP 504), and drain
//	# cleanly on SIGTERM within 30s
//	bifrost-serve -max-queue 4096 -job-timeout 30s -shutdown-timeout 30s
//
//	# a cluster: every node gets the same -cluster list; each worker names
//	# itself with -self and replicates results to R ring owners, the node
//	# without -self is the coordinator sharding jobs across all members
//	CLUSTER=w1=http://10.0.0.1:8087,w2=http://10.0.0.2:8087
//	bifrost-serve -cluster $CLUSTER -self w1 -cache-dir /var/cache/bifrost  # on 10.0.0.1
//	bifrost-serve -cluster $CLUSTER -self w2 -cache-dir /var/cache/bifrost  # on 10.0.0.2
//	bifrost-serve -cluster $CLUSTER                                         # coordinator
//
//	# one simulation
//	curl -s localhost:8087/simulate -d '{
//	  "arch": {"controller": "maeri", "ms_size": 128},
//	  "op": "conv2d",
//	  "conv": {"c": 2, "h": 10, "k": 4, "r": 3},
//	  "mapping": [3, 3, 1, 2, 1, 1, 1, 1],
//	  "seed": 1
//	}'
//
//	# a sweep as JSON lines, one job per line
//	curl -s localhost:8087/batch -H 'Content-Type: application/x-ndjson' \
//	  --data-binary @sweep.ndjson
//
//	# scheduler + cache metrics + telemetry rollups
//	curl -s localhost:8087/stats
//
//	# Prometheus scrape endpoint (also mounted on the -pprof side port)
//	curl -s localhost:8087/metrics
//
//	# build / toolchain / SIMD / configured bounds
//	curl -s localhost:8087/version
//
//	# recent per-job lifecycle traces, newest first
//	curl -s localhost:8087/debug/traces
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/farm"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// parseCluster decodes -cluster (comma-separated name=url entries, a name on
// every one) and returns every member but -self: the coordinator's peers
// when self is empty, a worker's replica members otherwise. Every node is
// given the same list, so the coordinator's placement ring and each
// worker's replica ring (self plus its peers) hash the same names and agree
// on every key's owners.
func parseCluster(list, self string) ([]serve.Peer, error) {
	if strings.TrimSpace(list) == "" {
		if self != "" {
			return nil, errors.New("-self requires -cluster")
		}
		return nil, nil
	}
	var peers []serve.Peer
	names, urls := make(map[string]bool), make(map[string]bool)
	for _, part := range strings.Split(list, ",") {
		name, rawurl, ok := strings.Cut(part, "=")
		name, rawurl = strings.TrimSpace(name), strings.TrimSpace(rawurl)
		if !ok || name == "" || rawurl == "" {
			return nil, fmt.Errorf("bad -cluster entry %q (want name=url)", part)
		}
		if !strings.Contains(rawurl, "://") {
			rawurl = "http://" + rawurl
		}
		rawurl = strings.TrimRight(rawurl, "/")
		if names[name] {
			return nil, fmt.Errorf("duplicate name %q in -cluster", name)
		}
		if urls[rawurl] {
			return nil, fmt.Errorf("duplicate url %q in -cluster", rawurl)
		}
		names[name], urls[rawurl] = true, true
		if name != self {
			peers = append(peers, serve.Peer{Name: name, URL: rawurl})
		}
	}
	if self != "" && !names[self] {
		return nil, fmt.Errorf("-self %q is not in -cluster", self)
	}
	return peers, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bifrost-serve: ")
	var (
		addr       = flag.String("addr", ":8087", "listen address")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "simulation-farm workers")
		cacheDir   = flag.String("cache-dir", "", "persistent result-cache directory (empty = memory only)")
		maxEntries = flag.Int("cache-max-entries", 0, "in-memory cache entry bound, LRU-evicted (0 = no entry bound; the byte bound still holds)")
		maxBytes   = flag.Int64("cache-max-bytes", 0, "in-memory cache byte bound, LRU-evicted (0 = the default, 256 MiB)")
		diskMax    = flag.Int64("cache-disk-max-bytes", 0, "disk cache byte bound, oldest segments first (0 = unbounded)")
		maxQueue   = flag.Int("max-queue", 0, "queued-job bound: submissions beyond it are rejected with HTTP 429 + Retry-After instead of growing the queue (0 = unbounded)")
		jobTimeout = flag.Duration("job-timeout", 0, "default per-request deadline, e.g. 30s; an unanswered request fails with HTTP 504, and its queued job is removed unless another request waits on it (0 = none; requests override with timeout_ms)")
		drainWait  = flag.Duration("shutdown-timeout", 30*time.Second, "graceful-drain bound on SIGINT/SIGTERM: running jobs get this long to finish before queued work is abandoned")
		pprofAddr  = flag.String("pprof", "", "side-port listen address for net/http/pprof and /metrics, e.g. localhost:6060 (empty = disabled)")
		traceAll   = flag.Bool("trace", false, "echo a per-job lifecycle trace in every response (same as \"trace\": true on each request)")
		slowJob    = flag.Duration("slow-job", 0, "log a warning with the full lifecycle trace for jobs slower than this, e.g. 250ms (0 = disabled)")
		traceRing  = flag.Int("traces", 256, "recent lifecycle traces retained for GET /debug/traces (0 = disabled)")
		logJSON    = flag.Bool("log-json", false, "emit structured request logs as JSON instead of text")
		logLevel   = flag.String("log-level", "info", "minimum structured-log level: debug, info, warn or error")
		clusterArg = flag.String("cluster", "", "cluster membership, the same list on every node: comma-separated name=url entries (e.g. w1=http://10.0.0.1:8087,w2=http://10.0.0.2:8087); without -self this node is the coordinator over every member")
		self       = flag.String("self", "", "this worker's name in -cluster: results are replicated to their ring owners among the other members (empty = coordinator)")
		sweepDir   = flag.String("sweep-dir", "", "directory for resumable-sweep journals (default: <cache-dir>/sweeps when -cache-dir is set; empty without it keeps journals in-process only)")
		peerTO     = flag.Duration("peer-timeout", 2*time.Minute, "coordinator per-dispatch response-header bound: a peer that has not begun answering within it fails over (dials are bounded separately)")
		peerProbe  = flag.Duration("peer-probe", 5*time.Second, "coordinator active health-probe interval: each peer's /healthz answer feeds its breaker, taking it off/on the ring (0 = dispatch answers only)")
		replicas   = flag.Int("replicas", 2, "result-replication factor R with -self: each result is written to the first R distinct ring owners (clamped to cluster size)")
	)
	flag.Parse()

	peers, err := parseCluster(*clusterArg, *self)
	if err != nil {
		log.Fatal(err)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		log.Fatalf("bad -log-level %q: %v", *logLevel, err)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, hopts)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	}
	logger := slog.New(handler)

	log.Printf("simd: %s kernels", tensor.SIMDLevel())

	opts := []farm.Option{
		farm.WithMaxEntries(*maxEntries),
		farm.WithMaxBytes(*maxBytes),
		farm.WithMaxQueue(*maxQueue),
	}
	if *traceRing > 0 {
		opts = append(opts, farm.WithTraceRing(telemetry.NewTraceRing(*traceRing)))
	}
	if *replicas < 1 {
		log.Fatal("-replicas must be at least 1")
	}
	// The persistent slot composes: a local disk tier (-cache-dir) chained
	// before the other cluster members (-self), each behind its own retry
	// wrapper so a flaky disk or unreachable peer is retried, quarantined
	// and re-probed without stalling workers. On a worker the replicated
	// store fans writes to the key's R ring owners and reads only the local
	// tier: every result is a pure function of its key, so a copy this node
	// lacks is recomputed, never fetched.
	var local farm.LocalTier
	if *cacheDir != "" {
		ds, err := farm.NewDiskStore(*cacheDir, *diskMax)
		if err != nil {
			log.Fatal(err)
		}
		local = farm.NewRetryStore(ds, farm.DefaultRetryPolicy())
		log.Printf("persistent cache at %s (%d entries, %d bytes warm)",
			ds.Dir(), ds.Stats().Entries, ds.Stats().Bytes)
	}
	var repl *farm.ReplicatedStore
	if *self != "" {
		members := make([]farm.ReplicaMember, len(peers))
		for i, p := range peers {
			members[i] = farm.ReplicaMember{
				Name:  p.Name,
				Store: farm.NewRetryStore(farm.NewPeerStore(p.URL), farm.DefaultRetryPolicy()),
			}
		}
		repl = farm.NewReplicatedStore(local, *self, *replicas, members)
		opts = append(opts, farm.WithDiskStore(repl))
		log.Printf("replicated result tier: %d peer(s), R=%d, self %q", len(members), *replicas, *self)
	} else if local != nil {
		opts = append(opts, farm.WithDiskStore(local))
	}
	fm := farm.New(*workers, opts...)
	if *sweepDir == "" && *cacheDir != "" {
		*sweepDir = *cacheDir + "/sweeps"
	}
	sopts := []serve.ServerOption{
		serve.WithJobTimeout(*jobTimeout),
		serve.WithLogger(logger),
		serve.WithTraceAll(*traceAll),
		serve.WithSlowJobThreshold(*slowJob),
		serve.WithSweepDir(*sweepDir),
	}
	if repl != nil {
		sopts = append(sopts, serve.WithReplicatedStore(repl))
	}
	if *sweepDir != "" {
		log.Printf("resumable-sweep journals at %s", *sweepDir)
	}
	if *self == "" && len(peers) > 0 {
		sopts = append(sopts,
			serve.WithPeers(peers),
			serve.WithPeerTimeout(*peerTO),
			serve.WithPeerProbes(*peerProbe),
		)
		log.Printf("coordinator mode over %d peer(s)", len(peers))
	}
	api := serve.NewServer(fm, sopts...)
	if *pprofAddr != "" {
		// The pprof import registers its handlers on the default mux;
		// mounting /metrics beside them gives operators one private side
		// port for both profiling and scraping, off the public API.
		http.DefaultServeMux.Handle("GET /metrics", api.MetricsHandler())
		side := &http.Server{
			Addr:              *pprofAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("pprof + metrics on http://%s/debug/pprof/ and /metrics", *pprofAddr)
			if err := side.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful drain: the first SIGINT/SIGTERM — or a POST /drain — flips
	// the node to draining (new work refused with the machine-readable
	// "draining" code and /healthz and /readyz report 503; a coordinator
	// counts either answer as a failure until this node's breaker trips),
	// finishes queued jobs via the farm's drain within -shutdown-timeout,
	// then stops the listener. The endpoints stay up through the farm
	// drain so load balancers and coordinators observe the state instead
	// of a vanished socket. A second signal aborts immediately
	// (signal.Stop restores default handling).
	done := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			done <- err
			return
		}
		done <- nil
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	log.Printf("serving on %s with %d workers", *addr, fm.Workers())

	drain := func() {
		api.BeginDrain() // idempotent: already set when POST /drain led here
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := fm.Shutdown(ctx); err != nil {
			log.Printf("farm shutdown: %v", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		api.Close()
		log.Printf("drained, bye")
	}

	select {
	case err := <-done:
		api.Close()
		fm.Close()
		if err != nil {
			log.Fatal(err)
		}
	case s := <-sig:
		log.Printf("%s: draining (up to %s)...", s, *drainWait)
		signal.Stop(sig) // a second signal kills the process the default way
		drain()
	case <-api.DrainRequested():
		log.Printf("POST /drain: draining (up to %s)...", *drainWait)
		signal.Stop(sig)
		drain()
	}
}
