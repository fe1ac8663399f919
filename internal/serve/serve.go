// Package serve implements the bifrost-serve batch simulation service: an
// HTTP + JSON-lines front end over the simulation farm. It follows the
// proven cosimulation-service shape — simulators as pluggable services
// behind a line-oriented JSON protocol — so heavy sweeps can be driven
// remotely, batched, deduplicated and cached:
//
//	POST /simulate      one job  (JSON object  → JSON object)
//	POST /batch         a sweep  (JSON {"jobs": [...]} → {"results": [...]},
//	                    or NDJSON: one job per line → one result per line);
//	                    ?sweep_id=<id> detaches and journals the run, and
//	                    &resume=true re-attaches to it or replays it (batch.go)
//	GET  /stats         farm scheduler + cache metrics + telemetry rollups
//	GET  /metrics       Prometheus text exposition of every metric family
//	GET  /version       build, toolchain, SIMD level and configured bounds
//	GET  /debug/traces  bounded ring of recent per-job lifecycle traces
//	GET  /healthz       liveness probe (503 once draining)
//	GET  /readyz        readiness probe (draining, disk degraded, queue full)
//	POST /drain         flip to draining: refuse new work, finish the queue
//
// Operand tensors are generated server-side from the request seed, so a job
// is a small, reproducible description — the same request always hits the
// same content-addressed cache entry, including entries persisted to disk
// by a previous process (bifrost-serve -cache-dir): a restarted server
// answers previously computed requests byte-identically with zero
// simulator executions. Generation is lazy: the server submits the request's
// spec with a generator attached, and the farm materialises operands only
// to hash a spec it has never keyed or to actually simulate — a cache hit
// costs a lookup.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/farm"
	"repro/internal/telemetry"
)

// Server routes simulation requests into a farm.
type Server struct {
	farm       *farm.Farm
	mux        *http.ServeMux
	jobTimeout time.Duration

	logger   *slog.Logger
	traceAll bool
	slowJob  time.Duration
	ring     *telemetry.TraceRing

	peerList []Peer
	coord    *coordinator
	peerCfg  peerConfig

	sweeps *sweepRegistry
	// operands shares the seeded operands of in-flight requests (operands.go).
	operands *operandRegistry

	repl *farm.ReplicatedStore

	draining  atomic.Bool
	drainCh   chan struct{}
	drainOnce sync.Once

	inflight   *telemetry.Gauge
	reqSeconds map[string]*telemetry.Histogram
	started    time.Time
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithJobTimeout sets the default per-job deadline applied to requests that
// leave timeout_ms unset (0 disables the default). A job that outlives its
// deadline fails with HTTP 504; if it was still queued the farm removes it
// so it never occupies a worker.
func WithJobTimeout(d time.Duration) ServerOption { return func(s *Server) { s.jobTimeout = d } }

// WithLogger sets the structured request logger (default slog.Default()).
func WithLogger(l *slog.Logger) ServerOption { return func(s *Server) { s.logger = l } }

// WithTraceAll echoes a lifecycle trace in every job response, as if each
// request had set "trace": true. Tracing never changes results or keys.
func WithTraceAll(on bool) ServerOption { return func(s *Server) { s.traceAll = on } }

// WithSlowJobThreshold logs a warning with the full lifecycle trace for
// any job slower than d (0 disables). The trace is collected for every job
// while enabled, whether or not the client asked for one, but echoed only
// on request.
func WithSlowJobThreshold(d time.Duration) ServerOption { return func(s *Server) { s.slowJob = d } }

// WithTraceRing sets the ring backing GET /debug/traces. When unset, the
// server uses the farm's ring (farm.WithTraceRing); with neither, the
// endpoint reports zero traces.
func WithTraceRing(r *telemetry.TraceRing) ServerOption { return func(s *Server) { s.ring = r } }

// WithSweepDir sets the directory where resumable sweeps journal their
// completed rows, surviving process restarts. Empty keeps journals
// in-process only: sweeps still survive client disconnects and stay
// resumable for the life of the server, but not across a restart.
func WithSweepDir(dir string) ServerOption { return func(s *Server) { s.sweeps.dir = dir } }

// WithReplicatedStore hands the server the farm's replicated result tier so
// it can surface replication health: the replica metric families on
// /metrics and the replication_degraded readiness reason.
func WithReplicatedStore(rs *farm.ReplicatedStore) ServerOption {
	return func(s *Server) { s.repl = rs }
}

// NewServer returns an http.Handler serving the bifrost-serve API on the
// given farm.
func NewServer(f *farm.Farm, opts ...ServerOption) *Server {
	s := &Server{farm: f, mux: http.NewServeMux(), started: time.Now(), drainCh: make(chan struct{}),
		sweeps: newSweepRegistry(), operands: newOperandRegistry()}
	s.peerCfg = peerConfig{Timeout: 2 * time.Minute}
	for _, opt := range opts {
		opt(s)
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	if s.ring == nil {
		s.ring = f.Ring()
	}
	if len(s.peerList) > 0 {
		s.coord = newCoordinator(s, s.peerList)
	}
	reg := telemetry.Default()
	s.inflight = reg.Gauge("bifrost_http_in_flight",
		"HTTP requests currently being served.")
	s.reqSeconds = make(map[string]*telemetry.Histogram)
	s.route("POST", "/simulate", s.handleSimulate)
	s.route("POST", "/batch", s.handleBatch)
	s.route("POST", "/drain", s.handleDrain)
	s.route("GET", "/stats", s.handleStats)
	s.route("GET", "/metrics", s.handleMetrics)
	s.route("GET", "/version", s.handleVersion)
	s.route("GET", "/debug/traces", s.handleTraces)
	s.route("GET", "/healthz", s.handleHealthz)
	s.route("GET", "/readyz", s.handleReadyz)
	// The peer wire protocol: this node's result cache, readable and
	// writable by other nodes under the versioned codec handshake.
	s.mux.Handle("/peer/", farm.PeerHandler(f))
	return s
}

// Close releases the server's background resources (the coordinator's
// health-probe loop). The farm is owned by the caller and not touched.
func (s *Server) Close() {
	if s.coord != nil {
		s.coord.stop()
	}
}

// BeginDrain flips the node into draining: liveness stays up long enough
// for load balancers to observe readiness going false, /healthz and
// /readyz report 503, and new work is refused with the machine-readable
// "draining" code, which a coordinator takes as its cue to pull this node
// off its ring and fail the job over. Queued work is unaffected — the
// caller finishes it via farm.Shutdown. Idempotent.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// DrainRequested returns a channel closed when the node begins draining —
// main selects on it next to the signal channel so POST /drain and SIGTERM
// share one shutdown path.
func (s *Server) DrainRequested() <-chan struct{} { return s.drainCh }

// DrainResponse is the POST /drain payload: the work still owed at the
// moment the node flipped.
type DrainResponse struct {
	Draining bool  `json:"draining"`
	Queued   int64 `json:"queued"`
	Pending  int64 `json:"pending"`
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.BeginDrain()
	st := s.farm.Stats()
	writeJSON(w, http.StatusOK, DrainResponse{Draining: true, Queued: st.Queued, Pending: st.Pending})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		// Liveness goes false on drain so plain health-checking load
		// balancers (no readiness notion) also stop routing here.
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// readiness distinguishes "alive" from "should receive new work": a
// draining node, a node whose disk tier is quarantined, one at its queue
// bound, or one that cannot reach R replica owners is alive but not ready.
func (s *Server) readiness() (bool, []string) {
	var reasons []string
	if s.Draining() {
		reasons = append(reasons, "draining")
	}
	st := s.farm.Stats()
	if st.Disk != nil && st.Disk.Degraded {
		reasons = append(reasons, "disk_degraded")
	}
	if lim := s.farm.Limits(); lim.MaxQueue > 0 && st.Queued >= int64(lim.MaxQueue) {
		reasons = append(reasons, "queue_saturated")
	}
	if s.repl != nil && s.repl.ReplicationDegraded() {
		// Fewer than R owners reachable: new results can't reach their full
		// replica count, so route fresh work to nodes whose durability is
		// intact.
		reasons = append(reasons, "replication_degraded")
	}
	return len(reasons) == 0, reasons
}

// ReadyResponse is the GET /readyz payload.
type ReadyResponse struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready, reasons := s.readiness()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, ReadyResponse{Ready: ready, Reasons: reasons})
}

// refuseDraining answers new work on a draining node: 503 with the
// machine-readable code so sweep clients retry against another node.
func (s *Server) refuseDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable,
		JobResponse{Error: "node is draining", Code: "draining", Retryable: true})
}

// route registers an instrumented endpoint: per-endpoint latency
// histogram, in-flight gauge and a structured request log line.
func (s *Server) route(method, path string, h http.HandlerFunc) {
	hist := telemetry.Default().Histogram("bifrost_http_request_seconds",
		"HTTP request latency per endpoint.",
		nil, telemetry.Label{Name: "endpoint", Value: path})
	s.reqSeconds[path] = hist
	s.mux.HandleFunc(method+" "+path, s.instrument(path, hist, h))
}

// statusRecorder captures the response status and size for the request
// log. It forwards Flush so the NDJSON streaming path keeps streaming.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument wraps a handler with the request telemetry: latency
// histogram, in-flight gauge, structured log line. Scrape and liveness
// endpoints log at Debug so a tight scrape loop does not drown real
// traffic in the log.
func (s *Server) instrument(endpoint string, hist *telemetry.Histogram, h http.HandlerFunc) http.HandlerFunc {
	level := slog.LevelInfo
	if endpoint == "/healthz" || endpoint == "/readyz" || endpoint == "/metrics" {
		level = slog.LevelDebug
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inflight.Inc()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		s.inflight.Dec()
		elapsed := time.Since(start)
		hist.Observe(elapsed.Seconds())
		s.logger.LogAttrs(r.Context(), level, "request",
			slog.String("method", r.Method),
			slog.String("path", endpoint),
			slog.Int("status", rec.status),
			slog.Float64("elapsed_ms", telemetry.MS(elapsed)),
			slog.Int64("bytes", rec.bytes),
		)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// run executes one request through the farm and shapes the response. ctx is
// the request context: a client that disconnects mid-sweep cancels its
// still-queued jobs so they never occupy a worker.
func (s *Server) run(ctx context.Context, req JobRequest) JobResponse {
	start := time.Now()
	// echoTrace controls what the client sees; the job is additionally
	// traced when slow-job logging needs the data.
	echoTrace := req.Trace || s.traceAll
	req.Trace = echoTrace || s.slowJob > 0
	job, release, err := s.operands.lazyJob(req)
	defer release()
	if err != nil {
		return s.annotate(JobResponse{Error: err.Error(), ElapsedMS: msSince(start), err: err})
	}
	switch {
	case req.TimeoutMS > 0:
		job.Deadline = time.Duration(req.TimeoutMS) * time.Millisecond
	case req.TimeoutMS == 0:
		job.Deadline = s.jobTimeout
	}
	if job.Deadline > 0 {
		// Bound the wait as well as the queue time: a job already executing
		// when the deadline passes keeps running (its result still feeds the
		// cache and any other waiters), but this caller gets its 504 on time.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Deadline)
		defer cancel()
	}
	res, err := s.farm.DoCtx(ctx, job)
	elapsed := time.Since(start)
	if err != nil {
		// Best effort: name the job even on failure. The submission already
		// taught the farm this spec's key, so a node at its queue bound
		// answers its 429s and 504s without hashing an operand.
		key, _ := s.farm.KeyOf(job)
		return s.annotate(JobResponse{Key: key, Error: err.Error(), ElapsedMS: telemetry.MS(elapsed), err: err})
	}
	if s.slowJob > 0 && elapsed >= s.slowJob {
		s.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow job",
			slog.String("key", res.Key),
			slog.String("op", req.Op),
			slog.String("controller", req.Arch.Controller),
			slog.Bool("cached", res.Hit),
			slog.Float64("elapsed_ms", telemetry.MS(elapsed)),
			slog.Any("trace", res.Trace),
		)
	}
	resp := respond(res, elapsed)
	if echoTrace {
		resp.Trace = res.Trace
	}
	return resp
}

// respond shapes a farm result into its response row. Live executions,
// cache hits and journal replays all go through here, so a replayed row
// cannot drift from the row the original run produced.
func respond(res farm.Result, elapsed time.Duration) JobResponse {
	resp := JobResponse{Key: res.Key, Cached: res.Hit, Stats: &res.Stats, ElapsedMS: telemetry.MS(elapsed)}
	if res.Out != nil {
		resp.OutputShape = res.Out.Shape()
		var sum float64
		for _, v := range res.Out.Data() {
			sum += float64(v)
		}
		resp.OutputSum = sum
	}
	return resp
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// encBufPool recycles the JSON encode buffers: every response (and every
// NDJSON result line) is encoded into a pooled buffer and written in one
// call, so the steady-state encode path allocates no per-response buffers.
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

// badBodyStatus maps a request-body read error to its status: 413 when the
// body outgrew its http.MaxBytesReader bound or an NDJSON line the
// scanner's, 400 for anything malformed.
func badBodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) || errors.Is(err, bufio.ErrTooLong) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.refuseDraining(w)
		return
	}
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody)).Decode(&req); err != nil {
		writeJSON(w, badBodyStatus(err), JobResponse{Error: "decoding job: " + err.Error()})
		return
	}
	resp := s.dispatch(r.Context(), req)
	status := http.StatusOK
	if resp.err != nil {
		_, status, _ = classify(resp.err)
		if resp.RetryAfterMS > 0 {
			// The header form of the hint; a queue this deep drains at
			// roughly worker rate, so the value scales with the depth.
			w.Header().Set("Retry-After", fmt.Sprintf("%d", resp.RetryAfterMS/1000))
		}
	}
	writeJSON(w, status, resp)
}

// dispatch routes one request: through the coordinator's peer ring when
// configured, straight into the local farm otherwise.
func (s *Server) dispatch(ctx context.Context, req JobRequest) JobResponse {
	if s.coord != nil {
		return s.coord.run(ctx, req)
	}
	return s.run(ctx, req)
}

// retryAfterSeconds derives the 429 Retry-After hint from the live queue
// depth: an empty-ish queue suggests an immediate retry, a deep one scales
// the wait with how many worker-rounds it takes to drain, capped so a
// pathological backlog never tells clients to go away for minutes.
func (s *Server) retryAfterSeconds() int64 {
	st := s.farm.Stats()
	workers := int64(st.Workers)
	if workers < 1 {
		workers = 1
	}
	secs := 1 + st.Queued/(4*workers)
	if secs > 30 {
		secs = 30
	}
	return secs
}
