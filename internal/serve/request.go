package serve

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"strings"

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
	// Trace echoes a per-job lifecycle trace in the response: where the
	// job's wall-clock time went (enqueue wait, dedup, cache lookups,
	// compute, persist) and which tier answered it. Tracing never changes
	// results or cache keys.
	Trace bool `json:"trace,omitempty"`
	// TimeoutMS bounds this request's wait in milliseconds: a request still
	// unanswered when the timeout passes fails with a deadline error (HTTP
	// 504), and its job leaves the queue unless another request waits on
	// it. 0 inherits the server's -job-timeout default; a negative value
	// disables the deadline for this request. Timeouts never change results
	// or cache keys — only whether one is produced.
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
// server's own paths submit the named form and let the farm decide whether
// an operand is ever needed. Both forms key alike (farm.Job.Materialize):
// by spec and generator name, which is the key every served row carries.
func (r JobRequest) Job() (farm.Job, error) {
	j, err := r.lazyJob()
	return j.Materialize(), err
}

// seededOperands names the operands of a seeded request by the full
// argument list of their generator: uniform input and weights of the given
// shapes drawn from seed and seed+100, the weights pruned to the sparsity
// percentage. Generation is a pure function of these fields, all of which
// the job's spec covers, so the job is keyed by its spec and
// seededGenerator (farm.Job.WithOperands) and two requests with equal
// seededOperands need bit-identical tensors — the server's operand
// registry (operands.go) shares one pair between them. Both shapes have
// rank dims: 4 for conv2d (NCHW input, KCRS kernel), 2 for dense ([M K]
// input, [N K] weights).
type seededOperands struct {
	seed     int64
	sparsity int
	rank     int
	in, w    [4]int
}

// seededGenerator names and versions seededOperands.generate. A seeded job's
// key covers this name instead of the operand bytes, so any change to what
// generate returns for some seededOperands must bump the version: the
// golden in testdata/seeded_operands.golden fails until it does.
const seededGenerator = "serve/seeded-uniform/v1"

// generate draws the operands, prunes the weights, then stamps each tensor
// with its identity, so the pack cache keys their derived forms without
// hashing an element.
func (o seededOperands) generate() (input, weights *tensor.Tensor) {
	input = tensor.RandomUniform(o.seed, 1, o.in[:o.rank]...)
	weights = tensor.RandomUniform(o.seed+100, 1, o.w[:o.rank]...)
	if o.sparsity > 0 {
		tensor.Prune(weights, float64(o.sparsity)/100)
	}
	input.SetIdentity(o.identity("input"))
	weights.SetIdentity(o.identity("weights"))
	return input, weights
}

// identity names one generated operand: a SHA-256 over a domain tag, the
// generator's name and version, the operand's role and the generator's full
// argument list. Equal identities mean equal arguments, and so equal
// tensors.
func (o seededOperands) identity(role string) [sha256.Size]byte {
	return sha256.Sum256(fmt.Appendf(nil, "serve/operand-identity %q %q %+v", seededGenerator, role, o))
}

// operandsOf names the seeded operands of a job compiled by spec.
func operandsOf(j farm.Job) seededOperands {
	o := seededOperands{seed: j.Seed, sparsity: j.HW.SparsityRatio}
	if j.Kind == farm.Conv2D {
		d := j.Dims
		o.rank, o.in, o.w = 4, [4]int{d.N, d.C, d.H, d.W}, [4]int{d.K, d.C / d.G, d.R, d.S}
	} else {
		o.rank, o.in, o.w = 2, [4]int{j.M, j.K}, [4]int{j.N, j.K}
	}
	return o
}

// lazyJob compiles the request into a farm job without allocating an
// operand: a non-dry-run job carries its own seeded generator, under
// seededGenerator's name, instead of tensors.
func (r JobRequest) lazyJob() (farm.Job, error) {
	j, err := r.spec()
	if err == nil && !j.DryRun {
		j = j.WithOperands(seededGenerator, operandsOf(j).generate)
	}
	return j, err
}

// spec compiles the request into a farm job without operands: geometry and
// mappings are validated here.
func (r JobRequest) spec() (farm.Job, error) {
	cfg, err := r.Arch.Config()
	if err != nil {
		return farm.Job{}, err
	}
	j := farm.Job{HW: cfg, Seed: r.Seed, DryRun: r.DryRun, Trace: r.Trace}
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
	default:
		return farm.Job{}, fmt.Errorf("unknown op %q (want conv2d or dense)", r.Op)
	}
	return j, nil
}

// JobResponse is what one simulation reports back.
type JobResponse struct {
	// Key is the job's cache key (farm.Job.Key): a seeded job's names its
	// spec and operand generator.
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
	// "trace": true.
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
// error, including the millisecond form of the backpressure hint when the
// response does not already carry one (a busy peer's own, relayed by the
// coordinator).
func (s *Server) annotate(resp JobResponse) JobResponse {
	if resp.err == nil {
		return resp
	}
	code, _, retryable := classify(resp.err)
	resp.Code, resp.Retryable = code, retryable
	if errors.Is(resp.err, farm.ErrQueueFull) && resp.RetryAfterMS == 0 {
		resp.RetryAfterMS = 1000 * s.retryAfterSeconds()
	}
	return resp
}
