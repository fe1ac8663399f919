package bifrost

// Microbenchmarks of the fast paths, each paired with the reference
// implementation it replaced so the speedup stays measurable (both sides are
// farm.Run jobs; Job.Reference selects the oracle package):
//
//	BenchmarkMAERIDryRunConv     — analytical dry-run vs the step-loop
//	                               reference on a ResNet-scale layer (PR 2,
//	                               the §VII-B "cheap cost signal" path)
//	BenchmarkFullAccuracyConv    — full-accuracy fused fast path (analytic
//	                               counters + fused arithmetic) vs the
//	                               step-loop reference on the same
//	                               ResNet-scale layer (PR 4); real output
//	                               tensor both ways, bit-identical
//	BenchmarkFullAccuracyLowered — full-accuracy GEMM-lowered convolution
//	                               (SIGMA / TPU path) fused vs reference
//	                               (materialised im2col + simulated GEMM)
//	BenchmarkFullAccuracyDense   — full-accuracy MAERI dense layer, fused
//	                               vs step loop
//	BenchmarkConvLowering        — fused im2col-free implicit GEMM vs the
//	                               materialised Im2Col + GEMM composition
//
// GEMM kernel variants (packed micro-kernel vs reference ikj loop) are
// benchmarked in internal/tensor. Claims are measured by the layered
// benchmark (benchmark/README.md).

import (
	"runtime"
	"testing"

	"repro/internal/farm"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// resnetLayer is a ResNet-scale mid-network convolution: 256 channels in
// and out, 14×14 spatial, 3×3 kernel.
func resnetLayer() (tensor.ConvDims, mapping.ConvMapping) {
	d := tensor.ConvDims{N: 1, C: 256, H: 14, W: 14, K: 256, R: 3, S: 3, PadH: 1, PadW: 1}
	m := mapping.ConvMapping{TR: 3, TS: 3, TC: 1, TK: 8, TG: 1, TN: 1, TX: 1, TY: 1}
	return d, m
}

// benchFusedVsReference runs job through farm.Run twice: on the production
// engines (name "fused") and, with Job.Reference set, on the oracle package's
// step loops ("reference").
func benchFusedVsReference(b *testing.B, prefix, fused string, job farm.Job) {
	for _, ref := range []bool{false, true} {
		name := prefix + fused
		if ref {
			name = prefix + "reference"
		}
		job.Reference = ref
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := farm.Run(job); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMAERIDryRunConv(b *testing.B) {
	d, m := resnetLayer()
	benchFusedVsReference(b, "", "analytic", farm.Job{
		HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Conv2D,
		Dims: d, ConvMapping: m, DryRun: true,
	})
}

// BenchmarkFullAccuracyConv measures the PR 4 tentpole on MAERI:
// full-accuracy ResNet-scale convolutions producing their real output
// tensors, fused (analytic Stats + fused arithmetic, the default) against
// the step-loop reference. The equivalence suite proves the two
// bit-identical; this benchmark records what decoupling counters from
// arithmetic buys. Both layers perform the same 115.6M MACs (ResNet stages
// are MAC-balanced); conv5 stresses the kernel-locality gap harder.
func BenchmarkFullAccuracyConv(b *testing.B) {
	layers := []struct {
		name string
		d    tensor.ConvDims
	}{
		{"conv4_14x14x256", tensor.ConvDims{N: 1, C: 256, H: 14, W: 14, K: 256, R: 3, S: 3, PadH: 1, PadW: 1}},
		{"conv5_7x7x512", tensor.ConvDims{N: 1, C: 512, H: 7, W: 7, K: 512, R: 3, S: 3, PadH: 1, PadW: 1}},
	}
	for _, layer := range layers {
		d := layer.d
		benchFusedVsReference(b, layer.name+"/", "fused", farm.Job{
			HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Conv2D, Layout: tensor.NHWC,
			Dims:        d,
			ConvMapping: mapping.ConvMapping{TR: 3, TS: 3, TC: 1, TK: 8, TG: 1, TN: 1, TX: 1, TY: 1},
			Input:       tensor.RandomUniform(1, 1, d.N, d.H, d.W, d.C), // NHWC
			Weights:     tensor.RandomUniform(2, 1, d.R, d.S, d.C, d.K), // RSCK
		})
	}
}

// BenchmarkFullAccuracyLowered measures the GEMM-lowered full-accuracy path
// (here the TPU; SIGMA shapes behave the same): fused (GEMMStats counters +
// implicit-GEMM arithmetic through the packed micro-kernel) against the
// reference (materialised im2col multiplied by the cycle-ticked mesh).
func BenchmarkFullAccuracyLowered(b *testing.B) {
	d := tensor.ConvDims{N: 1, C: 64, H: 28, W: 28, K: 64, R: 3, S: 3, PadH: 1, PadW: 1}
	benchFusedVsReference(b, "", "fused", farm.Job{
		HW: config.Default(config.TPUOSDense), Kind: farm.Conv2D, Dims: d,
		Input:   tensor.RandomUniform(1, 1, d.N, d.C, d.H, d.W),
		Weights: tensor.RandomUniform(2, 1, d.K, d.C, d.R, d.S),
	})
}

// BenchmarkFullAccuracyDense measures the fused full-accuracy dense layer
// against the step loop on a classifier-scale FC (1024 → 1000).
func BenchmarkFullAccuracyDense(b *testing.B) {
	benchFusedVsReference(b, "", "fused", farm.Job{
		HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Dense,
		FCMapping: mapping.FCMapping{TS: 16, TK: 8, TN: 1},
		Input:     tensor.RandomUniform(1, 1, 4, 1024),
		Weights:   tensor.RandomUniform(2, 1, 1000, 1024),
	})
}

func BenchmarkConvLowering(b *testing.B) {
	d := tensor.ConvDims{N: 1, C: 64, H: 28, W: 28, K: 64, R: 3, S: 3, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		b.Fatal(err)
	}
	in := tensor.RandomUniform(1, 1, d.N, d.C, d.H, d.W)
	kernel := tensor.RandomUniform(2, 1, d.K, d.C, d.R, d.S)
	b.Run("im2col", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			km := tensor.KernelMatrix(kernel, d, 0)
			cols := tensor.Im2Col(in, d, 0)
			tensor.GEMM(km, cols)
		}
	})
	b.Run("implicit1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.ConvGEMMImplicit(in, kernel, d, 1)
		}
	})
	b.Run("implicit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.ConvGEMMImplicit(in, kernel, d, 0)
		}
	})
}

// warmSweepMappings returns 16 distinct, valid MAERI mappings sharing one
// reduction-tile decomposition (T_R=3, T_S=3, T_C=1) — the shape of a real
// mapping search over a fixed layer, and the shape that lets the shared
// pack cache reuse one set of kernel panels across the whole sweep.
func warmSweepMappings() []mapping.ConvMapping {
	var ms []mapping.ConvMapping
	for tk := 1; tk <= 14; tk++ {
		ms = append(ms, mapping.ConvMapping{TR: 3, TS: 3, TC: 1, TK: tk, TG: 1, TN: 1, TX: 1, TY: 1})
	}
	for _, tk := range []int{1, 2} {
		ms = append(ms, mapping.ConvMapping{TR: 3, TS: 3, TC: 1, TK: tk, TG: 1, TN: 1, TX: 1, TY: 2})
	}
	return ms
}

// BenchmarkWarmSweep measures the PR 5 tentpole: jobs/sec of a warm
// repeated-weight mapping sweep through the farm. Every iteration submits
// the same NCHW weights under 16 distinct mappings with a fresh input
// (result-cache misses by construction, so every job really simulates —
// "warm" refers to the pack cache and arenas, not the result cache), with
// farm workers = NumCPU.
//
//	pooled   — the default farm: shared content-keyed PackCache (kernel
//	           layout conversion + per-tile panels packed once per sweep),
//	           pooled tensor arenas
//	baseline — the PR 4 configuration: pack reuse disabled, arenas
//	           bypassed
//	guarded  — the pooled farm plus the PR 7 robustness guards as
//	           bifrost-serve deploys them: a bounded submit queue and a
//	           persistent tier (an in-memory stand-in, so the disk itself
//	           is not measured) wrapped in a RetryStore (retry + health
//	           breaker). The guards sit on the submit, probe and persist
//	           paths, so this variant bounds their steady-state overhead —
//	           it should be within noise of pooled.
//
// Outputs and cache keys are byte-identical across all variants (the
// farmtest equivalence and fault-tolerance passes prove it); only jobs/sec
// differs.
func BenchmarkWarmSweep(b *testing.B) {
	d := tensor.ConvDims{N: 1, C: 256, H: 6, W: 6, K: 256, R: 3, S: 3, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		b.Fatal(err)
	}
	ker := tensor.RandomUniform(2, 1, d.K, d.C, d.R, d.S) // KCRS: the NCHW lowering path
	mappings := warmSweepMappings()
	cfg := config.Default(config.MAERIDenseWorkload)

	variants := []struct {
		name   string
		pooled bool
		opts   func() []farm.Option
	}{
		{"pooled", true, func() []farm.Option {
			return []farm.Option{farm.WithMaxEntries(256)}
		}},
		{"baseline", false, func() []farm.Option {
			return []farm.Option{farm.WithMaxEntries(256), farm.WithPackCache(nil)}
		}},
		{"guarded", true, func() []farm.Option {
			return []farm.Option{farm.WithMaxEntries(256), farm.WithMaxQueue(4096),
				farm.WithDiskStore(farm.NewRetryStore(farm.NewMemoryStore(256, 0), farm.DefaultRetryPolicy()))}
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			prev := tensor.SetPooling(v.pooled)
			defer tensor.SetPooling(prev)
			fm := farm.New(runtime.NumCPU(), v.opts()...)
			defer fm.Close()

			jobs := make([]farm.Job, len(mappings))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := tensor.RandomUniform(int64(1000+i), 1, d.N, d.C, d.H, d.W)
				for j, m := range mappings {
					jobs[j] = farm.Job{HW: cfg, Kind: farm.Conv2D, Dims: d,
						ConvMapping: m, Input: in, Weights: ker, Seed: int64(i)}
				}
				if _, err := fm.DoBatch(jobs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*len(mappings))/b.Elapsed().Seconds(), "jobs/s")
			if st := fm.Stats(); st.Hits != 0 {
				b.Fatalf("warm sweep was served from the result cache (%d hits): the measurement is void", st.Hits)
			}
		})
	}
}
