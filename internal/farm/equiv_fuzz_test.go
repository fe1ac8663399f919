package farm_test

import (
	"errors"
	"math/bits"
	"testing"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// Operators an equivalence case can run.
const (
	opConvNCHW = iota
	opConvNHWC
	opDense
	opDryConv
	opDryDense
	numOps
)

// equivCase is one randomised engine-vs-oracle comparison. Its byte encoding
// is what the fuzzer mutates: one byte per field, each reduced modulo the
// field's range, so every byte string decodes to a case and the fixed tables
// of the engines' equivalence suites encode to seeds.
type equivCase struct {
	cfg   config.HWConfig
	op    int
	zeros bool // sprinkle zeros into the activations (the fused conv skips them)
	seed  int
	d     tensor.ConvDims // conv geometry and mapping
	cm    mapping.ConvMapping
	m, k  int // dense geometry (batches, input neurons, output neurons) and mapping
	n     int
	fm    mapping.FCMapping
}

// Field ranges. Powers of two are stored as exponents; ms_size starts at 4,
// below the smallest valid array, so rejected configurations are drawn too.
const (
	maxExp                   = 6 // ms_size 4..256, dn_bw / rn_bw 1..64
	maxMeshExp               = 4 // ms_rows / ms_cols 1..16
	maxN, maxG, maxCG, maxKG = 3, 3, 8, 10
	maxHW, maxRS, maxStride  = 13, 5, 3
	maxPad                   = 2
	maxDenseM, maxDenseN     = 3, 64 // dense K is a whole byte: 1..256
	maxMACs                  = 1 << 16
)

var controllers = []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM, config.TPUOSDense}

// decodeCase reads a case off data; missing bytes read as zero.
func decodeCase(data []byte) equivCase {
	next := func(lo, hi int) int { // inclusive
		var b byte
		if len(data) > 0 {
			b, data = data[0], data[1:]
		}
		return lo + int(b)%(hi-lo+1)
	}
	// A tile of 1..dim, 1 half of the time: a mapping is legal only while the
	// product of its tiles fits the multiplier array.
	tile := func(dim int) int {
		if v := next(1, 2*dim); v <= dim {
			return v
		}
		return 1
	}
	var c equivCase
	ct := controllers[next(0, len(controllers)-1)]
	c.op = next(0, numOps-1)
	c.cfg = config.Default(ct)
	ms, dn, rn := 4<<next(0, maxExp), 1<<next(0, maxExp), 1<<next(0, maxExp)
	flags := next(0, 7)
	// Only square meshes validate (dn_bw = ms_rows + ms_cols must be a power
	// of two), so the column byte mostly means "same as rows".
	rows, cols := 1<<next(0, maxMeshExp), next(0, 2*maxMeshExp+1)
	if cols > maxMeshExp {
		cols = rows
	} else {
		cols = 1 << cols
	}
	sparsity := next(0, 100)
	c.seed = next(0, 255)
	c.zeros = flags&4 != 0
	switch ct {
	case config.TPUOSDense:
		c.cfg.MSRows, c.cfg.MSCols = rows, cols
	case config.SIGMASparseGEMM:
		c.cfg.SparsityRatio = sparsity
		fallthrough
	default:
		c.cfg.MSSize, c.cfg.DNBandwidth, c.cfg.RNBandwidth = ms, dn, rn
		c.cfg.AccumBuffer = flags&1 != 0
		if flags&2 != 0 {
			c.cfg.ReduceNetwork = config.FENetwork
		}
	}
	if c.op == opDense || c.op == opDryDense {
		c.m, c.k, c.n = next(1, maxDenseM), next(1, 256), next(1, maxDenseN)
		c.fm = mapping.FCMapping{TS: tile(c.n), TK: min(tile(256), c.k), TN: tile(c.m)}
		return c
	}
	d := tensor.ConvDims{N: next(1, maxN), G: next(1, maxG)}
	d.C, d.K = d.G*next(1, maxCG), d.G*next(1, maxKG)
	d.H, d.W = next(1, maxHW), next(1, maxHW)
	d.R, d.S = next(1, maxRS), next(1, maxRS)
	d.StrideH, d.StrideW = next(1, maxStride), next(1, maxStride)
	d.PadH, d.PadW = next(0, maxPad), next(0, maxPad)
	if next(0, 7) == 7 { // MAERI rejects dilation; the lowerings support it
		d.DilationH, d.DilationW = 2, 2
	}
	c.d = d
	p, q := 1, 1
	if d.Resolve() == nil { // tiles are clamped to the dims they tile
		p, q = d.P(), d.Q()
	}
	c.cm = mapping.ConvMapping{
		TR: tile(d.R), TS: tile(d.S), TC: tile(d.C / d.G), TK: tile(d.K / d.G),
		TG: tile(d.G), TN: tile(d.N), TX: tile(p), TY: tile(q),
	}
	return c
}

// encode is decodeCase's inverse for in-range cases; the seed tables use it.
func (c equivCase) encode() []byte {
	exp := func(v, base int) byte { return byte(bits.TrailingZeros(uint(v / base))) }
	var flags byte
	if c.cfg.AccumBuffer {
		flags |= 1
	}
	if c.cfg.ReduceNetwork == config.FENetwork {
		flags |= 2
	}
	if c.zeros {
		flags |= 4
	}
	ct := 0
	for controllers[ct] != c.cfg.Controller {
		ct++
	}
	b := []byte{byte(ct), byte(c.op), 0, 0, 0, flags, 0, 0, byte(c.cfg.SparsityRatio), byte(c.seed)}
	if c.cfg.Controller == config.TPUOSDense {
		b[6], b[7] = exp(c.cfg.MSRows, 1), exp(c.cfg.MSCols, 1)
		if c.cfg.MSRows == c.cfg.MSCols {
			b[7] = maxMeshExp + 1
		}
	} else {
		b[2], b[3], b[4] = exp(c.cfg.MSSize, 4), exp(c.cfg.DNBandwidth, 1), exp(c.cfg.RNBandwidth, 1)
	}
	if c.op == opDense || c.op == opDryDense {
		return append(b, byte(c.m-1), byte(c.k-1), byte(c.n-1), byte(c.fm.TS-1), byte(c.fm.TK-1), byte(c.fm.TN-1))
	}
	d, m := c.d, c.cm
	dil := byte(0)
	if d.DilationH > 1 {
		dil = 7
	}
	return append(b, byte(d.N-1), byte(d.G-1), byte(d.C/d.G-1), byte(d.K/d.G-1), byte(d.H-1), byte(d.W-1),
		byte(d.R-1), byte(d.S-1), byte(d.StrideH-1), byte(d.StrideW-1), byte(d.PadH), byte(d.PadW), dil,
		byte(m.TR-1), byte(m.TS-1), byte(m.TC-1), byte(m.TK-1), byte(m.TG-1), byte(m.TN-1), byte(m.TX-1), byte(m.TY-1))
}

// macs sizes a case so the step loops stay under ~10 ms.
func (c equivCase) macs() int {
	if c.op == opDense || c.op == opDryDense {
		return c.m * c.k * c.n
	}
	d := c.d
	if d.Resolve() != nil {
		return 0
	}
	return int(d.MACs())
}

// job builds the case's farm job: seeded operands, SIGMA weights pruned to
// the configured sparsity as core and serve do.
func (c equivCase) job() farm.Job {
	j := farm.Job{HW: c.cfg, Seed: int64(c.seed)}
	random := func(seed int, shape ...int) *tensor.Tensor {
		return tensor.RandomUniform(int64(seed), 1, shape...)
	}
	d := c.d
	switch c.op {
	case opDryConv:
		j.Kind, j.DryRun, j.Dims, j.ConvMapping = farm.Conv2D, true, d, c.cm
		return j
	case opDryDense:
		j.Kind, j.DryRun, j.FCMapping = farm.Dense, true, c.fm
		j.M, j.K, j.N = c.m, c.k, c.n
		return j
	case opDense:
		j.Kind, j.FCMapping = farm.Dense, c.fm
		j.Input, j.Weights = random(c.seed, c.m, c.k), random(c.seed+1000, c.n, c.k)
	case opConvNHWC:
		j.Kind, j.Layout, j.Dims, j.ConvMapping = farm.Conv2D, tensor.NHWC, d, c.cm
		j.Input, j.Weights = random(c.seed, d.N, d.H, d.W, d.C), random(c.seed+1000, d.R, d.S, d.C/d.G, d.K)
	default:
		j.Kind, j.Layout, j.Dims, j.ConvMapping = farm.Conv2D, tensor.NCHW, d, c.cm
		j.Input, j.Weights = random(c.seed, d.N, d.C, d.H, d.W), random(c.seed+1000, d.K, d.C/d.G, d.R, d.S)
	}
	if c.zeros {
		tensor.Prune(j.Input, 0.25)
	}
	if c.cfg.Controller == config.SIGMASparseGEMM {
		tensor.Prune(j.Weights, float64(c.cfg.SparsityRatio)/100)
	}
	return j
}

// equivSeeds re-states the fixed tables of the engines' equivalence suites
// (maeri/sigma/tpu equiv_test.go, farmtest.Jobs) as cases.
func equivSeeds() []equivCase {
	maeri := func(ms, dn, rn int, accum bool, rnet config.ReduceNetworkType) config.HWConfig {
		cfg := config.Default(config.MAERIDenseWorkload)
		cfg.MSSize, cfg.DNBandwidth, cfg.RNBandwidth, cfg.AccumBuffer, cfg.ReduceNetwork = ms, dn, rn, accum, rnet
		return cfg
	}
	maeriCfgs := []config.HWConfig{
		maeri(256, 4, 4, true, config.ASNetwork), maeri(256, 1, 1, false, config.ASNetwork),
		maeri(256, 8, 2, true, config.FENetwork), maeri(256, 2, 8, false, config.FENetwork),
	}
	sigma := func(ratio int, accum bool) config.HWConfig {
		cfg := config.Default(config.SIGMASparseGEMM)
		cfg.SparsityRatio, cfg.AccumBuffer = ratio, accum
		return cfg
	}
	dims := []tensor.ConvDims{
		{N: 1, G: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{N: 2, G: 1, C: 6, H: 7, W: 9, K: 4, R: 3, S: 3, StrideH: 1, StrideW: 1},
		{N: 1, G: 1, C: 8, H: 11, W: 11, K: 8, R: 3, S: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{N: 1, G: 2, C: 8, H: 10, W: 10, K: 8, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{N: 3, G: 3, C: 6, H: 9, W: 9, K: 6, R: 5, S: 5, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2},
		{N: 1, G: 1, C: 5, H: 13, W: 13, K: 7, R: 1, S: 1, StrideH: 1, StrideW: 1},
		{N: 1, G: 1, C: 2, H: 8, W: 8, K: 4, R: 3, S: 3, StrideH: 1, StrideW: 1}, // farmtest.Jobs
	}
	convMaps := []mapping.ConvMapping{
		mapping.Basic(),
		{TR: 3, TS: 3, TC: 1, TK: 2, TG: 1, TN: 1, TX: 2, TY: 2},
		{TR: 2, TS: 2, TC: 3, TK: 1, TG: 1, TN: 1, TX: 3, TY: 2},
		{TR: 1, TS: 3, TC: 2, TK: 3, TG: 1, TN: 1, TX: 4, TY: 3},
		{TR: 3, TS: 1, TC: 1, TK: 2, TG: 2, TN: 1, TX: 2, TY: 5},
	}
	var seeds []equivCase
	for di, d := range dims {
		for mi, m := range convMaps {
			// MAERI under every mapping the geometry admits, configurations
			// and operators rotating; the GEMM architectures ignore the
			// mapping, so one case per geometry covers them.
			i := di*len(convMaps) + mi
			if m.Validate(d, 256) == nil {
				op := []int{opConvNHWC, opConvNCHW, opDryConv}[i%3]
				seeds = append(seeds, equivCase{cfg: maeriCfgs[i%len(maeriCfgs)], op: op, zeros: true, seed: 100 + di, d: d, cm: m})
			}
		}
		seeds = append(seeds,
			equivCase{cfg: sigma(50, di%2 == 0), op: opConvNCHW + di%2, seed: 14, d: d, cm: mapping.Basic()},
			equivCase{cfg: config.Default(config.TPUOSDense), op: opConvNCHW + di%2, seed: 15, d: d, cm: mapping.Basic()})
	}
	fcMaps := []mapping.FCMapping{{TS: 1, TN: 1, TK: 1}, {TS: 4, TN: 1, TK: 8}, {TS: 5, TN: 1, TK: 3}, {TS: 2, TN: 2, TK: 7}}
	for gi, g := range [][3]int{{1, 256, 64}, {3, 100, 37}, {2, 17, 5}, {2, 16, 8}} {
		for mi, m := range fcMaps {
			if m.Validate(g[0], g[1], g[2], 256) == nil {
				i := gi*len(fcMaps) + mi
				seeds = append(seeds, equivCase{cfg: maeriCfgs[i%len(maeriCfgs)], op: opDense + 2*(i%2), seed: 30 + gi, m: g[0], k: g[1], n: g[2], fm: m})
			}
		}
	}
	// SIGMA stationary [s, k] × streaming [k, m] and TPU [m, k] × [k, n] as
	// dense layers, across the suites' sparsity levels.
	for gi, g := range [][3]int{{5, 16, 8}, {7, 29, 13}, {1, 4, 4}, {12, 9, 31}, {8, 8, 8}, {13, 5, 9}, {1, 17, 1}, {20, 3, 33}} {
		g[0] = min(g[0], maxDenseM)
		seeds = append(seeds,
			equivCase{cfg: sigma([]int{0, 30, 90, 100}[gi%4], gi%2 == 0), op: opDense, seed: gi, m: g[0], k: g[1], n: g[2], fm: mapping.BasicFC()},
			equivCase{cfg: config.Default(config.TPUOSDense), op: opDense, seed: gi, m: g[0], k: g[1], n: g[2], fm: mapping.BasicFC()})
	}
	return seeds
}

// FuzzEngineEquivalence is the randomised form of the equivalence contract:
// for any hardware configuration, layer geometry, mapping and sparsity, a
// job run on the production engines (analytic counters + fused arithmetic)
// and the same job run on the oracle package (Job.Reference) agree on every
// counter and every output bit — and fail together when the case is
// invalid. Operands are generated from a seed, so they are always finite,
// the precondition of the bitwise contract (see Job.Reference).
func FuzzEngineEquivalence(f *testing.F) {
	for _, c := range equivSeeds() {
		f.Add(c.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeCase(data)
		if c.macs() > maxMACs {
			t.Skip("case too large for the step loops")
		}
		job := c.job()
		got, gotErr := farm.Run(job)
		job.Reference = true
		want, wantErr := farm.Run(job)
		for _, err := range []error{gotErr, wantErr} {
			var pe *farm.PanicError
			if errors.As(err, &pe) {
				t.Fatalf("%+v panicked: %v", c, err)
			}
		}
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%+v: engines and oracle disagree on validity:\n engines: %v\n oracle:  %v", c, gotErr, wantErr)
		}
		if err := farmtest.DiffResults(want, got); err != nil {
			t.Fatalf("%+v: engines diverge from the oracle: %v", c, err)
		}
	})
}

// TestEquivCaseRoundTrip pins the seed encoding: every table seed decodes
// back to itself, so the corpus exercises the cases it claims to.
func TestEquivCaseRoundTrip(t *testing.T) {
	for i, c := range equivSeeds() {
		if got := decodeCase(c.encode()); got != c {
			t.Errorf("seed %d does not round-trip:\n want %+v\n got  %+v", i, c, got)
		}
	}
}
