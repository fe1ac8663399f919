package farm

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/job_keys.golden with freshly computed keys")

// goldenJobs is the named job set whose keys are pinned on disk. The file
// is the tripwire for the persistent cache: cache keys name disk files, so
// any change to the canonical encoding must bump keyVersion AND
// DiskFormatVersion, then regenerate with
//
//	go test ./internal/farm/ -run TestKeyGoldenFile -update-golden
func goldenJobs() []struct {
	name string
	job  Job
} {
	sigmaDense := Job{
		HW: config.Default(config.SIGMASparseGEMM), Kind: Dense,
		FCMapping: mapping.FCMapping{TS: 2, TK: 2, TN: 1},
		Input:     tensor.RandomUniform(3, 1, 1, 8),
		Weights:   tensor.RandomUniform(4, 1, 4, 8),
		Seed:      3,
	}
	sigmaDense.HW.SparsityRatio = 50
	tpuConv := Job{
		HW: config.Default(config.TPUOSDense), Kind: Conv2D,
		Dims:        tensor.ConvDims{N: 1, C: 2, H: 6, W: 6, K: 4, R: 3, S: 3},
		ConvMapping: mapping.Basic(),
		Input:       tensor.RandomUniform(5, 1, 1, 2, 6, 6),
		Weights:     tensor.RandomUniform(6, 1, 4, 2, 3, 3),
		Seed:        5,
	}
	nhwcConv := convJob()
	nhwcConv.Layout = tensor.NHWC
	// The named twin of convJob: same spec, operands named by a generator.
	namedConv := convJob().WithOperands("farm-test/golden/v1", func() (in, w *tensor.Tensor) {
		panic("keying a named job built its operands")
	})
	dryConv := Job{
		HW: config.Default(config.MAERIDenseWorkload), Kind: Conv2D, DryRun: true,
		Dims:        tensor.ConvDims{N: 1, C: 4, H: 10, W: 10, K: 8, R: 3, S: 3},
		ConvMapping: mapping.ConvMapping{TR: 3, TS: 3, TC: 1, TK: 2, TG: 1, TN: 1, TX: 1, TY: 1},
	}
	return []struct {
		name string
		job  Job
	}{
		{"maeri-conv-nchw", convJob()},
		{"maeri-conv-nchw-named", namedConv},
		{"maeri-conv-nhwc", nhwcConv},
		{"maeri-dense-dry", denseJob()},
		{"maeri-conv-dry", dryConv},
		{"sigma-dense-sparse", sigmaDense},
		{"tpu-conv", tpuConv},
	}
}

// TestKeyGoldenFile pins today's key bytes in testdata/job_keys.golden.
func TestKeyGoldenFile(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# Job keys, pinned: content keys, and a named key (spec + generator name).\n")
	fmt.Fprintf(&buf, "# Regenerate ONLY together with a keyVersion + DiskFormatVersion bump:\n")
	fmt.Fprintf(&buf, "# these keys name on-disk cache records.\n")
	fmt.Fprintf(&buf, "# key version: %s   disk format: %s\n", keyVersion, DiskFormatVersion)
	for _, g := range goldenJobs() {
		fmt.Fprintf(&buf, "%s\t%s\n", g.name, mustKey(t, g.job))
	}
	path := filepath.Join("testdata", "job_keys.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden after a deliberate version bump): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("job keys changed — the disk cache format is invalidated.\nBump keyVersion (key.go) and DiskFormatVersion (codec.go), then regenerate.\n--- want\n%s--- got\n%s", want, buf.Bytes())
	}
}

// fuzzJob builds a small dry-run conv job from fuzzed parameters, clamped
// into valid ranges so Key() never errors. Dry-run jobs keep the fuzz fast:
// the key still covers HW, geometry, mapping, seed and flags.
func fuzzJob(c, h, k, r, stride, pad, tk uint8, seed int64, nhwc bool, ms uint8) Job {
	d := tensor.ConvDims{
		N: 1, C: int(c%6) + 1, H: int(h%10) + 4, W: int(h%10) + 4,
		K: int(k%8) + 1, R: int(r%3) + 1, S: int(r%3) + 1,
		StrideH: int(stride%2) + 1, StrideW: int(stride%2) + 1,
		PadH: int(pad % 3), PadW: int(pad % 3),
	}
	layout := tensor.NCHW
	if nhwc {
		layout = tensor.NHWC
	}
	cfg := config.Default(config.MAERIDenseWorkload)
	cfg.MSSize = 16 << (ms % 3)
	return Job{
		HW: cfg, Kind: Conv2D, Layout: layout, Dims: d, DryRun: true, Seed: seed,
		ConvMapping: mapping.ConvMapping{TR: d.R, TS: d.S, TC: 1, TK: int(tk%2) + 1, TG: 1, TN: 1, TX: 1, TY: 1},
	}
}

// jobsEquivalent decides semantic job equality independently of the hash:
// normalised hardware, operator identity, resolved geometry, mappings,
// seed, flags and bitwise operand contents. It is the ⇔ oracle for the
// fuzz target below.
func jobsEquivalent(a, b Job) bool {
	da, db := a.Dims, b.Dims
	if a.Kind == Conv2D {
		if da.Resolve() != nil || db.Resolve() != nil {
			return false
		}
	}
	if a.HW.Normalize() != b.HW.Normalize() {
		return false
	}
	if a.Kind != b.Kind || a.Layout != b.Layout || a.DryRun != b.DryRun || a.Seed != b.Seed {
		return false
	}
	if da != db || a.ConvMapping != b.ConvMapping || a.FCMapping != b.FCMapping {
		return false
	}
	if a.M != b.M || a.K != b.K || a.N != b.N {
		return false
	}
	return tensorBitsEqual(a.Input, b.Input) && tensorBitsEqual(a.Weights, b.Weights)
}

func tensorBitsEqual(a, b *tensor.Tensor) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if !tensor.ShapeEq(a.Shape(), b.Shape()) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}

// FuzzKeyEquality asserts the content-addressing contract both ways on
// arbitrary pairs of generated jobs: equal keys ⇔ equivalent jobs. A
// violation in the ⇐ direction is a missed field (stale cache served for a
// different simulation — the dangerous one now that keys name disk files);
// in the ⇒ direction it is over-hashing (evaluation-order or
// normalisation instability).
func FuzzKeyEquality(f *testing.F) {
	f.Add(uint8(2), uint8(6), uint8(4), uint8(3), uint8(1), uint8(1), uint8(2), int64(7), false, uint8(0),
		uint8(2), uint8(6), uint8(4), uint8(3), uint8(1), uint8(1), uint8(2), int64(7), false, uint8(0))
	f.Add(uint8(2), uint8(6), uint8(4), uint8(3), uint8(1), uint8(1), uint8(2), int64(7), false, uint8(0),
		uint8(3), uint8(6), uint8(4), uint8(3), uint8(1), uint8(1), uint8(2), int64(7), false, uint8(0))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), int64(0), true, uint8(2),
		uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), int64(0), false, uint8(2))
	f.Fuzz(func(t *testing.T,
		c1, h1, k1, r1, s1, p1, t1 uint8, seed1 int64, l1 bool, m1 uint8,
		c2, h2, k2, r2, s2, p2, t2 uint8, seed2 int64, l2 bool, m2 uint8) {
		a := fuzzJob(c1, h1, k1, r1, s1, p1, t1, seed1, l1, m1)
		b := fuzzJob(c2, h2, k2, r2, s2, p2, t2, seed2, l2, m2)
		ka, err := a.Key()
		if err != nil {
			t.Fatalf("key of valid job errored: %v (%+v)", err, a)
		}
		kb, err := b.Key()
		if err != nil {
			t.Fatalf("key of valid job errored: %v (%+v)", err, b)
		}
		if same := jobsEquivalent(a, b); same != (ka == kb) {
			t.Fatalf("key equality (%v) disagrees with job equivalence (%v):\n  a: %+v\n  b: %+v\n  ka: %s\n  kb: %s",
				ka == kb, same, a, b, ka, kb)
		}
		// ExecWorkers is performance-only and must never split the cache.
		aw := a
		aw.ExecWorkers = int(c2)%8 + 2
		kw, err := aw.Key()
		if err != nil {
			t.Fatal(err)
		}
		if kw != ka {
			t.Fatalf("ExecWorkers changed the key: %s vs %s", kw, ka)
		}
	})
}
