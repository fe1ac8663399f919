package farm

import (
	"encoding/hex"
	"testing"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// convJob returns a fixed, fully deterministic conv job for key tests.
func convJob() Job {
	return Job{
		HW:     config.Default(config.MAERIDenseWorkload),
		Kind:   Conv2D,
		Layout: tensor.NCHW,
		Dims:   tensor.ConvDims{N: 1, C: 2, H: 10, W: 10, K: 4, R: 3, S: 3},
		ConvMapping: mapping.ConvMapping{
			TR: 3, TS: 3, TC: 1, TK: 2, TG: 1, TN: 1, TX: 1, TY: 1,
		},
		Input:   tensor.RandomUniform(7, 1, 1, 2, 10, 10),
		Weights: tensor.RandomUniform(8, 1, 4, 2, 3, 3),
		Seed:    7,
	}
}

func denseJob() Job {
	return Job{
		HW:        config.Default(config.MAERIDenseWorkload),
		Kind:      Dense,
		FCMapping: mapping.FCMapping{TS: 4, TK: 2, TN: 1},
		M:         1, K: 16, N: 8,
		DryRun: true,
		Seed:   1,
	}
}

func mustKey(t *testing.T, j Job) string {
	t.Helper()
	k, err := j.Key()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyIdenticalJobsHashEqual(t *testing.T) {
	a, b := convJob(), convJob()
	if ka, kb := mustKey(t, a), mustKey(t, b); ka != kb {
		t.Fatalf("identical jobs hash differently:\n  %s\n  %s", ka, kb)
	}
	// Equal content in distinct tensors still hashes equal.
	c := convJob()
	c.Input = c.Input.Clone()
	c.Weights = c.Weights.Clone()
	if mustKey(t, c) != mustKey(t, a) {
		t.Fatal("cloned operands changed the key")
	}
}

func TestKeyNormalizedConfigsHashEqual(t *testing.T) {
	a := denseJob()
	b := denseJob()
	// Normalize() fixes the TPU's derived bandwidths; for MAERI it is the
	// identity, so exercise resolve-normalisation on conv dims instead:
	// G/stride/dilation defaults must hash like their explicit forms.
	ca, cb := convJob(), convJob()
	cb.Dims.G = 1
	cb.Dims.StrideH, cb.Dims.StrideW = 1, 1
	cb.Dims.DilationH, cb.Dims.DilationW = 1, 1
	if mustKey(t, ca) != mustKey(t, cb) {
		t.Fatal("defaulted conv dims hash differently from explicit ones")
	}
	if mustKey(t, a) != mustKey(t, b) {
		t.Fatal("identical dense jobs hash differently")
	}
}

func TestKeyFieldChangesChangeHash(t *testing.T) {
	base := mustKey(t, convJob())
	mutations := map[string]func(*Job){
		"mapping":  func(j *Job) { j.ConvMapping.TK = 4 },
		"ms_size":  func(j *Job) { j.HW.MSSize = 64 },
		"dn_bw":    func(j *Job) { j.HW.DNBandwidth = 16 },
		"layout":   func(j *Job) { j.Layout = tensor.NHWC },
		"dims":     func(j *Job) { j.Dims.K = 8 },
		"stride":   func(j *Job) { j.Dims.StrideH = 2 },
		"seed":     func(j *Job) { j.Seed = 99 },
		"dry_run":  func(j *Job) { j.DryRun = true },
		"kind":     func(j *Job) { j.Kind = Dense },
		"input":    func(j *Job) { j.Input = tensor.RandomUniform(99, 1, 1, 2, 10, 10) },
		"weights":  func(j *Job) { j.Weights.Data()[0] += 1 },
		"fc_tiles": func(j *Job) { j.FCMapping.TS = 9 },
	}
	for name, mutate := range mutations {
		j := convJob()
		mutate(&j)
		if j.Kind == Dense {
			// kind mutation: dense jobs don't resolve conv dims.
			j.Dims = tensor.ConvDims{}
			j.M, j.K, j.N = 1, 16, 8
			j.DryRun = true
		}
		if k := mustKey(t, j); k == base {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
	// Sparsity lives in the hardware configuration (SIGMA only).
	a := Job{HW: config.Default(config.SIGMASparseGEMM), Kind: Dense,
		Input: tensor.RandomUniform(1, 1, 1, 8), Weights: tensor.RandomUniform(2, 1, 4, 8)}
	b := a
	b.HW.SparsityRatio = 50
	if mustKey(t, a) == mustKey(t, b) {
		t.Error("mutating sparsity_ratio did not change the key")
	}
}

// TestPlacementIsSpecDigest pins Job.Placement: the hex form of the spec
// digest that indexes the key memo, computed without touching an operand —
// so operands never move it, a lazy job places like its materialised form,
// and every spec field the key covers does move it.
func TestPlacementIsSpecDigest(t *testing.T) {
	place := func(j Job) string {
		t.Helper()
		p, err := j.Placement()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := convJob()
	p := place(base)
	if d, _ := base.SpecDigest(); p != hex.EncodeToString(d[:]) {
		t.Fatalf("Placement %s is not the spec digest %x", p, d)
	}
	if p == mustKey(t, base) {
		t.Fatal("Placement equals the content key")
	}
	other := convJob()
	other.Input = tensor.RandomUniform(99, 1, 1, 2, 10, 10)
	other.ExecWorkers = 3
	if place(other) != p {
		t.Error("operands or ExecWorkers moved the placement")
	}
	lazy := base.WithOperands(func() (in, w *tensor.Tensor) {
		t.Fatal("Placement built the operands")
		return nil, nil
	})
	if place(lazy) != p {
		t.Error("a lazy job places unlike its materialised form")
	}
	for name, mutate := range map[string]func(*Job){
		"mapping": func(j *Job) { j.ConvMapping.TK = 4 },
		"ms_size": func(j *Job) { j.HW.MSSize = 64 },
		"dims":    func(j *Job) { j.Dims.K = 8 },
		"seed":    func(j *Job) { j.Seed = 99 },
		"dry_run": func(j *Job) { j.DryRun = true },
	} {
		j := convJob()
		mutate(&j)
		if place(j) == p {
			t.Errorf("mutating %s did not move the placement", name)
		}
	}
}

// TestKeyGoldenValues pins the exact hashes so a key is provably stable
// across processes, platforms and releases. If the canonical encoding ever
// changes, bump keyVersion and regenerate these values.
func TestKeyGoldenValues(t *testing.T) {
	golden := []struct {
		name string
		job  Job
		want string
	}{
		{"conv", convJob(), "a253119e62bb85994efc245062540b44ce7127dc875989900c09a29acc4b8db3"},
		{"dense-dry", denseJob(), "2d6ef9e26c66002872bae258a1a46c4bffaa7c3cfeab4a9c0735148cd7af4279"},
	}
	for _, g := range golden {
		if got := mustKey(t, g.job); got != g.want {
			t.Errorf("%s: key = %s, want %s", g.name, got, g.want)
		}
	}
}
