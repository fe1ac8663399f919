// Package serve implements the bifrost-serve batch simulation service: an
// HTTP + JSON-lines front end over the simulation farm. It follows the
// proven cosimulation-service shape — simulators as pluggable services
// behind a line-oriented JSON protocol — so heavy sweeps can be driven
// remotely, batched, deduplicated and cached:
//
//	POST /simulate      one job  (JSON object  → JSON object)
//	POST /batch         a sweep  (JSON {"jobs": [...]} → {"results": [...]},
//	                    or NDJSON: one job per line → one result per line);
//	                    ?sweep_id=<id> makes the sweep resumable: it keeps
//	                    computing after a client disconnect, journals every
//	                    completed row, and &resume=true replays journaled
//	                    rows from cache and streams only the remainder
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
	"mime"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/farm"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ArchSpec selects and overrides a hardware configuration. Controller
// accepts the short names (maeri, sigma, tpu) or the full STONNE
// controller_type strings; zero-valued fields keep the paper's defaults.
type ArchSpec struct {
	Controller string `json:"controller"`
	MSSize     int    `json:"ms_size,omitempty"`
	MSRows     int    `json:"ms_rows,omitempty"`
	MSCols     int    `json:"ms_cols,omitempty"`
	DNBw       int    `json:"dn_bw,omitempty"`
	RNBw       int    `json:"rn_bw,omitempty"`
	Sparsity   int    `json:"sparsity,omitempty"`
}

// Config resolves the spec into a validated HWConfig.
func (a ArchSpec) Config() (config.HWConfig, error) {
	var ct config.ControllerType
	switch strings.ToLower(a.Controller) {
	case "", "maeri", strings.ToLower(string(config.MAERIDenseWorkload)):
		ct = config.MAERIDenseWorkload
	case "sigma", strings.ToLower(string(config.SIGMASparseGEMM)):
		ct = config.SIGMASparseGEMM
	case "tpu", strings.ToLower(string(config.TPUOSDense)):
		ct = config.TPUOSDense
	default:
		return config.HWConfig{}, fmt.Errorf("unknown controller %q (want maeri, sigma or tpu)", a.Controller)
	}
	cfg := config.Default(ct)
	if a.MSSize > 0 {
		cfg.MSSize = a.MSSize
	}
	if a.MSRows > 0 {
		cfg.MSRows = a.MSRows
	}
	if a.MSCols > 0 {
		cfg.MSCols = a.MSCols
	}
	if a.DNBw > 0 {
		cfg.DNBandwidth = a.DNBw
	}
	if a.RNBw > 0 {
		cfg.RNBandwidth = a.RNBw
	}
	if a.Sparsity > 0 {
		cfg.SparsityRatio = a.Sparsity
	}
	cfg = cfg.Normalize()
	return cfg, cfg.Validate()
}

// ConvSpec is the convolution geometry of a request (Table II taxonomy).
type ConvSpec struct {
	N      int `json:"n,omitempty"`
	C      int `json:"c"`
	H      int `json:"h"`
	W      int `json:"w"`
	K      int `json:"k"`
	R      int `json:"r"`
	S      int `json:"s"`
	G      int `json:"g,omitempty"`
	Stride int `json:"stride,omitempty"`
	Pad    int `json:"pad,omitempty"`
}

// DenseSpec is the dense geometry of a request: M batches, K input neurons,
// N output neurons.
type DenseSpec struct {
	M int `json:"m,omitempty"`
	K int `json:"k"`
	N int `json:"n"`
}

// JobRequest describes one simulation. Operands are generated from Seed.
type JobRequest struct {
	Arch ArchSpec `json:"arch"`
	// Op is "conv2d" or "dense".
	Op    string     `json:"op"`
	Conv  *ConvSpec  `json:"conv,omitempty"`
	Dense *DenseSpec `json:"dense,omitempty"`
	// Mapping is the MAERI conv tile tuple [T_R,T_S,T_C,T_K,T_G,T_N,T_X,T_Y];
	// empty selects the basic mapping.
	Mapping []int `json:"mapping,omitempty"`
	// FCMapping is the dense tile tuple [T_S,T_K,T_N]; empty selects basic.
	FCMapping []int `json:"fc_mapping,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	// DryRun runs the counters-only MAERI measurement (no operands).
	DryRun bool `json:"dry_run,omitempty"`
	// ExecWorkers is the intra-job worker count for the exact arithmetic of
	// GEMM-lowered convolutions (SIGMA / TPU): 0 inherits the server
	// default, 1 forces the serial kernel, > 1 parallelises column blocks,
	// < 0 selects GOMAXPROCS. Responses are byte-identical for every value
	// (the accumulation order never changes), so it does not participate in
	// the cache key: serial and parallel requests share entries.
	ExecWorkers int `json:"exec_workers,omitempty"`
	// Trace echoes a per-job lifecycle trace in the response: where the
	// job's wall-clock time went (enqueue wait, dedup, cache lookups,
	// compute, persist) and which tier answered it. Tracing never changes
	// results or cache keys; the server's -trace flag turns it on for
	// every request.
	Trace bool `json:"trace,omitempty"`
	// TimeoutMS bounds the job in milliseconds: a job still unanswered when
	// the timeout passes fails with a deadline error (HTTP 504) instead of
	// occupying the queue. 0 inherits the server's -job-timeout default;
	// a negative value disables the deadline for this job. Timeouts never
	// change results or cache keys — only whether one is produced.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Front-door bounds on hostile input: constants, not flags — nothing a
// legitimate sweep sends comes near them.
const (
	// maxJobBody bounds a /simulate body (and one NDJSON line); a job is a
	// few hundred bytes of geometry.
	maxJobBody = 1 << 20
	// maxBatchBody bounds a /batch body: hundreds of thousands of rows.
	maxBatchBody = 64 << 20
	// maxOperandElems bounds each operand and output tensor a job may ask
	// the server to materialise: 2^28 float32s (1 GiB), seven times AlexNet
	// fc1's 37.7 M weights.
	maxOperandElems = 1 << 28
)

// checkElems rejects a tensor shape with a non-positive dimension or more
// than maxOperandElems elements. The product is bounded by division before
// each multiply, so it cannot overflow int.
func checkElems(what string, dims ...int) error {
	n := 1
	for _, d := range dims {
		if d <= 0 || n > maxOperandElems/d {
			return fmt.Errorf("%s %v needs positive dimensions and at most %d elements", what, dims, maxOperandElems)
		}
		n *= d
	}
	return nil
}

// Job compiles the request into a fully materialised farm job: the
// validated spec of lazyJob with both operand tensors generated. It is the
// eager form for callers that read the operands or run the job inline; the
// server's own paths submit the lazy form and let the farm decide whether
// an operand is ever needed.
func (r JobRequest) Job() (farm.Job, error) {
	j, err := r.lazyJob()
	return j.Materialize(), err
}

// seededOperands is the operand generator of a seeded request: uniform
// input and weights of the given shapes drawn from seed and seed+100, the
// weights pruned to the sparsity percentage. It is a pure function of its
// arguments, all of which the job's key covers (farm.Job.WithOperands).
func seededOperands(seed int64, sparsity int, inShape, wShape []int) func() (input, weights *tensor.Tensor) {
	return func() (input, weights *tensor.Tensor) {
		input = tensor.RandomUniform(seed, 1, inShape...)
		weights = tensor.RandomUniform(seed+100, 1, wShape...)
		if sparsity > 0 {
			tensor.Prune(weights, float64(sparsity)/100)
		}
		return input, weights
	}
}

// lazyJob compiles the request into a farm job without allocating an
// operand: geometry and mappings are validated here, and a non-dry-run job
// carries the seeded generator instead of tensors.
func (r JobRequest) lazyJob() (farm.Job, error) {
	cfg, err := r.Arch.Config()
	if err != nil {
		return farm.Job{}, err
	}
	j := farm.Job{HW: cfg, Seed: r.Seed, DryRun: r.DryRun, ExecWorkers: r.ExecWorkers, Trace: r.Trace}
	var inShape, wShape []int
	switch r.Op {
	case "conv2d":
		if r.Conv == nil {
			return farm.Job{}, fmt.Errorf("conv2d job needs a conv geometry")
		}
		c := *r.Conv
		if c.N == 0 {
			c.N = 1
		}
		if c.G == 0 {
			c.G = 1
		}
		if c.W == 0 {
			c.W = c.H // square input shorthand
		}
		if c.S == 0 {
			c.S = c.R // square kernel shorthand
		}
		// The input and pad bounds come first so Resolve's output-size
		// arithmetic cannot overflow.
		if c.G < 0 || c.Stride < 0 || c.Pad < 0 || c.Pad > maxOperandElems {
			return farm.Job{}, fmt.Errorf("conv2d job needs g, stride >= 0 and 0 <= pad <= %d, got %d, %d and %d",
				maxOperandElems, c.G, c.Stride, c.Pad)
		}
		if err := checkElems("conv input", c.N, c.C, c.H, c.W); err != nil {
			return farm.Job{}, err
		}
		d := tensor.ConvDims{N: c.N, C: c.C, H: c.H, W: c.W, K: c.K, R: c.R, S: c.S,
			G: c.G, StrideH: c.Stride, StrideW: c.Stride, PadH: c.Pad, PadW: c.Pad}
		if err := d.Resolve(); err != nil {
			return farm.Job{}, err
		}
		err = checkElems("conv kernel", d.K, d.C/d.G, d.R, d.S)
		if err == nil {
			err = checkElems("conv output", d.N, d.K, d.P(), d.Q())
		}
		if err != nil {
			return farm.Job{}, err
		}
		j.Kind = farm.Conv2D
		j.Dims = d
		j.ConvMapping = mapping.Basic()
		if len(r.Mapping) > 0 {
			if len(r.Mapping) != 8 {
				return farm.Job{}, fmt.Errorf("conv mapping needs 8 tiles, got %d", len(r.Mapping))
			}
			m := r.Mapping
			j.ConvMapping = mapping.ConvMapping{TR: m[0], TS: m[1], TC: m[2], TK: m[3],
				TG: m[4], TN: m[5], TX: m[6], TY: m[7]}
		}
		inShape, wShape = []int{d.N, d.C, d.H, d.W}, []int{d.K, d.C / d.G, d.R, d.S}
	case "dense":
		if r.Dense == nil {
			return farm.Job{}, fmt.Errorf("dense job needs a dense geometry")
		}
		dn := *r.Dense
		if dn.M == 0 {
			dn.M = 1
		}
		err = checkElems("dense input", dn.M, dn.K)
		if err == nil {
			err = checkElems("dense weights", dn.N, dn.K)
		}
		if err == nil {
			err = checkElems("dense output", dn.M, dn.N)
		}
		if err != nil {
			return farm.Job{}, err
		}
		j.Kind = farm.Dense
		j.M, j.K, j.N = dn.M, dn.K, dn.N
		j.FCMapping = mapping.BasicFC()
		if len(r.FCMapping) > 0 {
			if len(r.FCMapping) != 3 {
				return farm.Job{}, fmt.Errorf("fc mapping needs 3 tiles, got %d", len(r.FCMapping))
			}
			j.FCMapping = mapping.FCMapping{TS: r.FCMapping[0], TK: r.FCMapping[1], TN: r.FCMapping[2]}
		}
		inShape, wShape = []int{dn.M, dn.K}, []int{dn.N, dn.K}
	default:
		return farm.Job{}, fmt.Errorf("unknown op %q (want conv2d or dense)", r.Op)
	}
	if !r.DryRun {
		j = j.WithOperands(seededOperands(r.Seed, cfg.SparsityRatio, inShape, wShape))
	}
	return j, nil
}

// JobResponse is what one simulation reports back.
type JobResponse struct {
	// Key is the job's content-addressed cache key.
	Key string `json:"key,omitempty"`
	// Cached reports whether the result came from the farm's cache.
	Cached bool `json:"cached"`
	// Stats are the simulation counters (omitted on error).
	Stats *stats.Stats `json:"stats,omitempty"`
	// OutputShape and OutputSum summarise the output tensor so sweeps can
	// check reproducibility without shipping whole tensors.
	OutputShape []int   `json:"output_shape,omitempty"`
	OutputSum   float64 `json:"output_sum,omitempty"`
	// ElapsedMS is the request's server-side wall clock in float
	// milliseconds — float so sub-millisecond analytic dry runs report
	// their real cost instead of truncating to 0.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Trace is the job's lifecycle trace, present when the request set
	// "trace": true or the server runs with -trace.
	Trace *telemetry.Trace `json:"trace,omitempty"`
	// Peer names the node that executed the job when a coordinator
	// dispatched it across the ring; empty for locally executed jobs.
	Peer  string `json:"peer,omitempty"`
	Error string `json:"error,omitempty"`
	// Code, Retryable and RetryAfterMS make error rows machine-actionable,
	// which matters on the streamed NDJSON path where there is no HTTP
	// status per row: Code is the taxonomy bucket ("queue_full",
	// "deadline", "unavailable", "peer_unavailable", "invalid"), Retryable
	// says whether resubmitting the identical job can succeed, and
	// RetryAfterMS carries the backpressure hint that the single-job path
	// delivers via the Retry-After header.
	Code         string `json:"code,omitempty"`
	Retryable    bool   `json:"retryable,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`

	// err keeps the typed error for HTTP status mapping (429 on
	// backpressure, 504 on deadline, 503 on shutdown); Error carries its
	// message to the client.
	err error
}

// classify maps a job error onto the machine-readable taxonomy shared by
// the single-job status mapping and the streamed NDJSON error rows, so a
// sweep client can switch on the same codes whichever endpoint it used.
func classify(err error) (code string, status int, retryable bool) {
	switch {
	case err == nil:
		return "", http.StatusOK, false
	case errors.Is(err, farm.ErrQueueFull):
		// Backpressure: rejected before costing anything; retry after the
		// queue drains.
		return "queue_full", http.StatusTooManyRequests, true
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline", http.StatusGatewayTimeout, true
	case errors.Is(err, errPeerUnavailable):
		return "peer_unavailable", http.StatusBadGateway, true
	case errors.Is(err, farm.ErrFarmClosed), errors.Is(err, context.Canceled):
		return "unavailable", http.StatusServiceUnavailable, true
	default:
		// Malformed geometry, unknown op, bad mapping: resubmitting the
		// same job can only fail the same way.
		return "invalid", http.StatusUnprocessableEntity, false
	}
}

// annotate fills the taxonomy fields of an error response from its typed
// error, including the millisecond form of the backpressure hint.
func (s *Server) annotate(resp JobResponse) JobResponse {
	if resp.err == nil {
		return resp
	}
	code, _, retryable := classify(resp.err)
	resp.Code, resp.Retryable = code, retryable
	if errors.Is(resp.err, farm.ErrQueueFull) {
		resp.RetryAfterMS = 1000 * s.retryAfterSeconds()
	}
	return resp
}

// Server routes simulation requests into a farm.
type Server struct {
	farm        *farm.Farm
	mux         *http.ServeMux
	execWorkers int
	jobTimeout  time.Duration

	logger   *slog.Logger
	traceAll bool
	slowJob  time.Duration
	ring     *telemetry.TraceRing

	peerList   []Peer
	peerClient *http.Client
	coord      *coordinator
	peerCfg    peerConfig

	sweepDir string
	sweeps   *sweepRegistry

	repl  *farm.ReplicatedStore
	scrub *farm.Scrubber

	draining  atomic.Bool
	drainCh   chan struct{}
	drainOnce sync.Once

	inflight   *telemetry.Gauge
	reqSeconds map[string]*telemetry.Histogram
	started    time.Time
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithExecWorkers sets the default JobRequest.ExecWorkers applied to
// requests that leave the field unset (0). The server default keeps 0
// meaning the serial kernel, matching the farm's own default.
func WithExecWorkers(n int) ServerOption { return func(s *Server) { s.execWorkers = n } }

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
func WithSweepDir(dir string) ServerOption { return func(s *Server) { s.sweepDir = dir } }

// WithReplicatedStore hands the server the farm's replicated result tier so
// it can surface replication health: the replica/rebalance metric families
// on /metrics and the replication_degraded readiness reason.
func WithReplicatedStore(rs *farm.ReplicatedStore) ServerOption {
	return func(s *Server) { s.repl = rs }
}

// WithScrubber hands the server the disk scrubber so its counters ride
// /metrics. Lifecycle stays with the caller (main stops it on drain).
func WithScrubber(sc *farm.Scrubber) ServerOption {
	return func(s *Server) { s.scrub = sc }
}

// NewServer returns an http.Handler serving the bifrost-serve API on the
// given farm.
func NewServer(f *farm.Farm, opts ...ServerOption) *Server {
	s := &Server{farm: f, mux: http.NewServeMux(), started: time.Now(), drainCh: make(chan struct{})}
	s.peerCfg = defaultPeerConfig()
	for _, opt := range opts {
		opt(s)
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	if s.ring == nil {
		s.ring = f.Ring()
	}
	s.sweeps = newSweepRegistry(s.sweepDir)
	if len(s.peerList) > 0 {
		s.coord = newCoordinator(s, s.peerList, s.peerClient)
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
// /readyz report 503, new work is refused with the machine-readable
// "draining" code, and /stats advertises the state so coordinators remove
// this node from their rings before a single dispatch fails. Queued work
// is unaffected — the caller finishes it via farm.Shutdown. Idempotent.
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

// fanout bounds a batch's concurrent in-flight jobs. Twice the worker pool
// keeps every worker fed while the next never-seen specs' operand tensors
// materialise for hashing, but the width is clamped to the queue bound: a
// fan-out wider than the queue admits would manufacture ErrQueueFull rows
// for jobs whose caller was blocked right here, ready to wait.
func (s *Server) fanout() int {
	n := 2 * s.farm.Workers()
	if lim := s.farm.Limits(); lim.MaxQueue > 0 && n > lim.MaxQueue {
		n = lim.MaxQueue
	}
	if n < 1 {
		n = 1
	}
	return n
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
	if req.ExecWorkers == 0 {
		req.ExecWorkers = s.execWorkers
	}
	// echoTrace controls what the client sees; the job is additionally
	// traced when slow-job logging needs the data.
	echoTrace := req.Trace || s.traceAll
	req.Trace = echoTrace || s.slowJob > 0
	job, err := req.lazyJob()
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
		// taught the farm this spec's key, so an overloaded node answers its
		// 429s and 504s without hashing an operand.
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

// BatchRequest is the JSON form of a sweep.
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// BatchResponse carries sweep results in submission order plus a stats
// snapshot taken after the sweep.
type BatchResponse struct {
	Results []JobResponse `json:"results"`
	Stats   farm.Stats    `json:"stats"`
}

// handleBatch accepts either a JSON {"jobs": [...]} body or NDJSON (one job
// per line, Content-Type application/x-ndjson) and executes the whole sweep
// concurrently through the farm. NDJSON requests stream NDJSON responses,
// one line per job, in order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.refuseDraining(w)
		return
	}
	ctype, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	ndjson := ctype == "application/x-ndjson" || ctype == "application/jsonlines"

	query := r.URL.Query()
	sweepID := query.Get("sweep_id")
	resume := false
	if v := query.Get("resume"); v != "" {
		var err error
		if resume, err = strconv.ParseBool(v); err != nil {
			writeJSON(w, http.StatusBadRequest, JobResponse{Error: "resume must be a boolean: " + err.Error()})
			return
		}
	}
	if resume && sweepID == "" {
		writeJSON(w, http.StatusBadRequest, JobResponse{Error: "resume=true needs a sweep_id"})
		return
	}

	var reqs []JobRequest
	body := http.MaxBytesReader(w, r.Body, maxBatchBody)
	if ndjson {
		sc := bufio.NewScanner(body)
		// The scanner grows its buffer on demand up to the line bound; a job
		// line is a few hundred bytes, so start there rather than at 1 MiB.
		sc.Buffer(make([]byte, 0, 4096), maxJobBody)
		line := 0
		for sc.Scan() {
			line++
			text := bytes.TrimSpace(sc.Bytes())
			if len(text) == 0 {
				continue
			}
			var req JobRequest
			if err := json.Unmarshal(text, &req); err != nil {
				writeJSON(w, http.StatusBadRequest, JobResponse{Error: fmt.Sprintf("line %d: %v", line, err)})
				return
			}
			reqs = append(reqs, req)
		}
		if err := sc.Err(); err != nil {
			writeJSON(w, badBodyStatus(err), JobResponse{Error: err.Error()})
			return
		}
	} else {
		var batch BatchRequest
		if err := json.NewDecoder(body).Decode(&batch); err != nil {
			writeJSON(w, badBodyStatus(err), JobResponse{Error: "decoding batch: " + err.Error()})
			return
		}
		reqs = batch.Jobs
	}

	if sweepID != "" {
		run, err := s.attachSweep(sweepID, reqs, resume)
		if err != nil {
			writeJSON(w, http.StatusConflict, JobResponse{Error: err.Error(), Code: "sweep_conflict"})
			return
		}
		if ndjson {
			s.streamSweep(w, r.Context(), run)
		} else {
			s.collectSweep(w, r.Context(), run)
		}
		return
	}

	if ndjson {
		s.streamBatch(w, r.Context(), reqs)
		return
	}

	// Fan the sweep out, but bound the in-flight requests: the farm caps
	// simulation concurrency, while this semaphore caps how many never-seen
	// jobs have their operand tensors materialised at once — without it a
	// huge cold sweep would allocate every operand up front regardless of
	// worker count.
	// The request context rides along: a client that disconnects cancels
	// every still-queued job of its sweep, freeing the farm for others.
	results := make([]JobResponse, len(reqs))
	sem := make(chan struct{}, s.fanout())
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, req JobRequest) {
			defer func() { <-sem; wg.Done() }()
			results[i] = s.dispatch(r.Context(), req)
		}(i, req)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{Results: results, Stats: s.farm.Stats()})
}

// streamBatch executes an NDJSON sweep with the same bounded fan-out as the
// JSON path, but streams the response: each result line is encoded through
// a pooled buffer, written as soon as it and all its predecessors are done
// (lines stay in submission order — the NDJSON contract), and flushed
// per-result, so a slow sweep delivers results as they complete instead of
// buffering the whole batch.
func (s *Server) streamBatch(w http.ResponseWriter, ctx context.Context, reqs []JobRequest) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)

	results := make([]JobResponse, len(reqs))
	done := make(chan int, len(reqs))
	sem := make(chan struct{}, s.fanout())
	go func() {
		for i, req := range reqs {
			sem <- struct{}{}
			go func(i int, req JobRequest) {
				defer func() { <-sem }()
				results[i] = s.dispatch(ctx, req)
				done <- i
			}(i, req)
		}
	}()

	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	enc := json.NewEncoder(buf)
	ready := make([]bool, len(reqs))
	written := 0
	for range reqs {
		ready[<-done] = true
		flushed := false
		for written < len(results) && ready[written] {
			buf.Reset()
			if err := enc.Encode(results[written]); err != nil {
				// The response is already streaming; all we can do is emit
				// an error line in place of the result.
				fmt.Fprintf(buf, "{\"error\":%q}\n", err.Error())
			}
			w.Write(buf.Bytes())
			written++
			flushed = true
		}
		if flushed && fl != nil {
			fl.Flush()
		}
	}
}

// Ratios summarises every cache tier as a single hit fraction.
type Ratios struct {
	// Farm is the fraction of submissions answered without a simulator
	// execution (cache hits plus single-flight attaches).
	Farm float64 `json:"farm"`
	// Memory and Disk are the per-tier lookup hit ratios.
	Memory float64 `json:"memory"`
	Disk   float64 `json:"disk,omitempty"`
	// Pack is the packed-operand cache's hit ratio.
	Pack float64 `json:"pack"`
}

// StatsResponse is the extended GET /stats payload: the farm's raw counter
// snapshot (unchanged shape — existing clients keep decoding it) plus the
// telemetry rollups layered on top.
type StatsResponse struct {
	farm.Stats
	// Ratios are the derived per-tier hit fractions.
	Ratios Ratios `json:"ratios"`
	// Phases summarises the per-phase job lifecycle histograms
	// (enqueue_wait, dedup, mem_lookup, disk_lookup, compute, persist).
	Phases map[string]telemetry.HistogramSummary `json:"phases,omitempty"`
	// Compute summarises simulator compute time per controller.
	Compute map[string]telemetry.HistogramSummary `json:"compute,omitempty"`
	// Requests summarises HTTP latency per endpoint.
	Requests map[string]telemetry.HistogramSummary `json:"requests,omitempty"`
	// Limits are the farm's configured bounds.
	Limits farm.Limits `json:"limits"`
	// TracesRecorded counts lifecycle traces captured into the debug ring.
	TracesRecorded uint64  `json:"traces_recorded"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	// Draining reports that this node has begun draining; a coordinator's
	// stats scrape uses it to pull the node off the ring before any
	// dispatch to it can fail.
	Draining bool `json:"draining"`
	// ActiveSweeps counts resumable sweeps currently executing (including
	// sweeps whose client has disconnected).
	ActiveSweeps int `json:"active_sweeps"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.farm.Stats()
	resp := StatsResponse{
		Stats: st,
		Ratios: Ratios{
			Farm:   st.HitRate(),
			Memory: st.Memory.HitRatio(),
			Pack:   telemetry.Ratio(st.Pack.Hits, st.Pack.Misses),
		},
		Phases:         farm.PhaseSummaries(),
		Compute:        api.ComputeSummaries(),
		Requests:       make(map[string]telemetry.HistogramSummary, len(s.reqSeconds)),
		Limits:         s.farm.Limits(),
		TracesRecorded: s.ring.Total(),
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Draining:       s.Draining(),
		ActiveSweeps:   s.sweeps.activeSweeps(),
	}
	if st.Disk != nil {
		resp.Ratios.Disk = st.Disk.HitRatio()
	}
	for path, hist := range s.reqSeconds {
		resp.Requests[path] = hist.Summary()
	}
	writeJSON(w, http.StatusOK, resp)
}

// MetricsHandler returns the Prometheus scrape handler standalone, so main
// can also mount it on the pprof side port.
func (s *Server) MetricsHandler() http.Handler { return http.HandlerFunc(s.handleMetrics) }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.Default().WritePrometheus(w)
	s.writeFarmMetrics(w)
	if s.coord != nil {
		s.coord.writeMetrics(w)
	}
}

// writeFarmMetrics renders the farm's counter snapshot as exposition
// families at scrape time. These values are owned by the farm's Stats
// accounting; deriving them per scrape keeps /metrics and /stats exactly
// consistent without double-counting state in the registry.
// bit01 renders a boolean as a 0/1 gauge value.
func bit01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (s *Server) writeFarmMetrics(w io.Writer) {
	st := s.farm.Stats()
	one := func(v float64) []telemetry.Sample { return []telemetry.Sample{{Value: v}} }

	telemetry.WriteSamples(w, "bifrost_farm_workers", "Configured worker pool size.", "gauge", one(float64(st.Workers))...)
	telemetry.WriteSamples(w, "bifrost_farm_busy_workers", "Workers executing a job right now.", "gauge", one(float64(st.BusyWorkers))...)
	telemetry.WriteSamples(w, "bifrost_farm_queue_depth", "Jobs waiting for a worker.", "gauge", one(float64(st.Queued))...)
	telemetry.WriteSamples(w, "bifrost_farm_pending_jobs", "Jobs queued or running.", "gauge", one(float64(st.Pending))...)

	telemetry.WriteSamples(w, "bifrost_farm_submitted_total", "Jobs handed to the farm.", "counter", one(float64(st.Submitted))...)
	telemetry.WriteSamples(w, "bifrost_farm_completed_total", "Simulator executions finished.", "counter", one(float64(st.Completed))...)
	telemetry.WriteSamples(w, "bifrost_farm_failed_total", "Simulator executions failed.", "counter", one(float64(st.Failed))...)
	telemetry.WriteSamples(w, "bifrost_farm_panics_total", "Simulator panics recovered into per-job errors.", "counter", one(float64(st.Panics))...)
	telemetry.WriteSamples(w, "bifrost_farm_cancelled_total", "Jobs cancelled, deadline-expired or abandoned by shutdown before execution.", "counter", one(float64(st.Cancelled))...)
	telemetry.WriteSamples(w, "bifrost_farm_rejected_total", "Submissions refused by the queue bound (backpressure).", "counter", one(float64(st.Rejected))...)
	telemetry.WriteSamples(w, "bifrost_farm_hits_total", "Submissions served from cache.", "counter", one(float64(st.Hits))...)
	telemetry.WriteSamples(w, "bifrost_farm_disk_hits_total", "Cache hits answered by the disk tier.", "counter", one(float64(st.DiskHits))...)
	telemetry.WriteSamples(w, "bifrost_farm_misses_total", "Submissions that required a simulation.", "counter", one(float64(st.Misses))...)
	telemetry.WriteSamples(w, "bifrost_farm_deduped_total", "Submissions attached to an in-flight execution.", "counter", one(float64(st.Deduped))...)
	telemetry.WriteSamples(w, "bifrost_farm_hit_ratio", "Fraction of submissions answered without an execution.", "gauge", one(st.HitRate())...)

	tier := func(name string) []telemetry.Label { return []telemetry.Label{{Name: "tier", Value: name}} }
	tiers := []struct {
		labels []telemetry.Label
		st     farm.StoreStats
	}{{tier("memory"), st.Memory}}
	if st.Disk != nil {
		tiers = append(tiers, struct {
			labels []telemetry.Label
			st     farm.StoreStats
		}{tier("disk"), *st.Disk})
	}
	family := func(suffix, help, typ string, pick func(farm.StoreStats) float64) {
		samples := make([]telemetry.Sample, len(tiers))
		for i, t := range tiers {
			samples[i] = telemetry.Sample{Labels: t.labels, Value: pick(t.st)}
		}
		telemetry.WriteSamples(w, "bifrost_store_"+suffix, help, typ, samples...)
	}
	family("entries", "Results held by the tier.", "gauge", func(s farm.StoreStats) float64 { return float64(s.Entries) })
	family("bytes", "Resident bytes held by the tier.", "gauge", func(s farm.StoreStats) float64 { return float64(s.Bytes) })
	family("hits_total", "Tier lookup hits.", "counter", func(s farm.StoreStats) float64 { return float64(s.Hits) })
	family("misses_total", "Tier lookup misses.", "counter", func(s farm.StoreStats) float64 { return float64(s.Misses) })
	family("puts_total", "Results stored into the tier.", "counter", func(s farm.StoreStats) float64 { return float64(s.Puts) })
	family("evictions_total", "Entries evicted to honour the tier's bounds.", "counter", func(s farm.StoreStats) float64 { return float64(s.Evictions) })
	family("corrupt_total", "Entries dropped as corrupt.", "counter", func(s farm.StoreStats) float64 { return float64(s.Corrupt) })
	family("errors_total", "Tier I/O errors.", "counter", func(s farm.StoreStats) float64 { return float64(s.Errors) })
	family("hit_ratio", "Tier lookup hit ratio.", "gauge", farm.StoreStats.HitRatio)
	if st.Disk != nil {
		d := *st.Disk
		telemetry.WriteSamples(w, "bifrost_farm_disk_errors_total",
			"Disk tier I/O failures: failed reads and writes plus failed deletes of corrupt or evicted entries.",
			"counter", one(float64(d.Errors+d.DeleteErrors))...)
		telemetry.WriteSamples(w, "bifrost_farm_disk_retries_total",
			"Disk operations re-attempted after a transient failure.",
			"counter", one(float64(d.Retries))...)
		telemetry.WriteSamples(w, "bifrost_farm_disk_breaker_trips_total",
			"Times the disk tier's health breaker opened.",
			"counter", one(float64(d.Trips))...)
		degraded := 0.0
		if d.Degraded {
			degraded = 1
		}
		telemetry.WriteSamples(w, "bifrost_farm_disk_degraded",
			"1 while the disk tier is quarantined (farm serving memory-only).",
			"gauge", one(degraded)...)
	}

	if s.repl != nil {
		rp := s.repl.ReplicaStats()
		telemetry.WriteSamples(w, "bifrost_replica_members",
			"Remote replica targets configured.",
			"gauge", one(float64(rp.Members))...)
		telemetry.WriteSamples(w, "bifrost_replica_healthy",
			"Remote replica targets currently accepting traffic.",
			"gauge", one(float64(rp.Healthy))...)
		telemetry.WriteSamples(w, "bifrost_replica_writes_total",
			"Successful remote replica writes (Put fan-out).",
			"counter", one(float64(rp.Writes))...)
		telemetry.WriteSamples(w, "bifrost_replica_failures_total",
			"Failed remote replica writes.",
			"counter", one(float64(rp.Failures))...)
		telemetry.WriteSamples(w, "bifrost_replica_repairs_total",
			"Replica writes performed by read-repair (a hit healed into tiers that missed).",
			"counter", one(float64(rp.Repairs))...)
		telemetry.WriteSamples(w, "bifrost_replica_rebalanced_total",
			"Keys streamed to new owners by anti-entropy after ring churn.",
			"counter", one(float64(rp.Rebalanced))...)
		telemetry.WriteSamples(w, "bifrost_replication_degraded",
			"1 while fewer than R replica owners are reachable.",
			"gauge", one(bit01(rp.Degraded))...)
	}
	if s.scrub != nil {
		sc := s.scrub.Stats()
		telemetry.WriteSamples(w, "bifrost_scrub_scanned_total",
			"Disk entries whose CRC frames the scrubber re-verified.",
			"counter", one(float64(sc.Scanned))...)
		telemetry.WriteSamples(w, "bifrost_scrub_corrupt_total",
			"Entries the scrubber found corrupt and deleted.",
			"counter", one(float64(sc.Corrupt))...)
		telemetry.WriteSamples(w, "bifrost_scrub_repaired_total",
			"Corrupt entries refilled from a replica instead of recomputed.",
			"counter", one(float64(sc.Repaired))...)
	}

	pk := st.Pack
	telemetry.WriteSamples(w, "bifrost_pack_cache_entries", "Packed operands held.", "gauge", one(float64(pk.Entries))...)
	telemetry.WriteSamples(w, "bifrost_pack_cache_bytes", "Resident packed-operand bytes.", "gauge", one(float64(pk.Bytes))...)
	telemetry.WriteSamples(w, "bifrost_pack_cache_hits_total", "Packed-operand reuse hits.", "counter", one(float64(pk.Hits))...)
	telemetry.WriteSamples(w, "bifrost_pack_cache_misses_total", "Packed-operand misses.", "counter", one(float64(pk.Misses))...)
	telemetry.WriteSamples(w, "bifrost_pack_cache_evictions_total", "Packed operands evicted.", "counter", one(float64(pk.Evictions))...)
	telemetry.WriteSamples(w, "bifrost_pack_cache_hit_ratio", "Packed-operand hit ratio.", "gauge", one(telemetry.Ratio(pk.Hits, pk.Misses))...)

	telemetry.WriteSamples(w, "bifrost_traces_recorded_total", "Lifecycle traces captured into the debug ring.", "counter", one(float64(s.ring.Total()))...)

	ready, _ := s.readiness()
	telemetry.WriteSamples(w, "bifrost_draining",
		"1 while the node is draining (new work refused, queued work finishing).",
		"gauge", one(bit01(s.Draining()))...)
	telemetry.WriteSamples(w, "bifrost_ready",
		"1 while the node is ready for new work (not draining, disk tier healthy, queue below bound).",
		"gauge", one(bit01(ready))...)
	telemetry.WriteSamples(w, "bifrost_active_sweeps",
		"Resumable sweeps currently executing.",
		"gauge", one(float64(s.sweeps.activeSweeps()))...)
	telemetry.WriteSamples(w, "bifrost_sweep_rows_replayed_total",
		"Sweep rows answered from the journal and cache instead of recomputing.",
		"counter", one(float64(s.sweeps.replayed.Load()))...)
}

// VersionInfo is the GET /version payload.
type VersionInfo struct {
	Module      string      `json:"module,omitempty"`
	Version     string      `json:"version,omitempty"`
	GoVersion   string      `json:"go_version"`
	VCSRevision string      `json:"vcs_revision,omitempty"`
	VCSTime     string      `json:"vcs_time,omitempty"`
	SIMD        string      `json:"simd"`
	ExecWorkers int         `json:"exec_workers"`
	Farm        farm.Limits `json:"farm"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	info := VersionInfo{
		GoVersion:   runtime.Version(),
		SIMD:        tensor.SIMDLevel(),
		ExecWorkers: s.execWorkers,
		Farm:        s.farm.Limits(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.Module = bi.Main.Path
		info.Version = bi.Main.Version
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				info.VCSRevision = kv.Value
			case "vcs.time":
				info.VCSTime = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, info)
}

// TracesResponse is the GET /debug/traces payload: the ring's retained
// lifecycle traces, newest first.
type TracesResponse struct {
	Total  uint64             `json:"total"`
	Traces []*telemetry.Trace `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, TracesResponse{Total: s.ring.Total(), Traces: s.ring.Snapshot()})
}
