package farm_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// seededGenerator names the tests' copy of the bifrost-serve recipe:
// uniform input, uniform weights at seed+100, weights pruned to the
// sparsity ratio.
const seededGenerator = "farm-test/seeded-uniform/v1"

// seeded is one seeded job spec built both ways: eager is its explicit twin
// and carries the operand tensors, lazy is named (Job.WithOperands) and
// carries a generator that regenerates them from the same seed and counts
// its calls.
type seeded struct {
	name        string
	eager, lazy farm.Job
	gens        *atomic.Int64
}

func seed(name string, spec farm.Job, inShape, wShape []int) seeded {
	gens := new(atomic.Int64)
	gen := func() (*tensor.Tensor, *tensor.Tensor) {
		gens.Add(1)
		in := tensor.RandomUniform(spec.Seed, 1, inShape...)
		w := tensor.RandomUniform(spec.Seed+100, 1, wShape...)
		if r := spec.HW.SparsityRatio; r > 0 {
			tensor.Prune(w, float64(r)/100)
		}
		return in, w
	}
	eager := spec
	eager.Input, eager.Weights = gen()
	gens.Store(0)
	return seeded{name: name, eager: eager, lazy: spec.WithOperands(seededGenerator, gen), gens: gens}
}

func seededConv(name string, ct config.ControllerType, sparsity int, d tensor.ConvDims, m mapping.ConvMapping, s int64) seeded {
	cfg := config.Default(ct)
	cfg.SparsityRatio = sparsity
	if err := d.Resolve(); err != nil {
		panic(err)
	}
	return seed(name, farm.Job{HW: cfg.Normalize(), Kind: farm.Conv2D, Dims: d, ConvMapping: m, Seed: s},
		[]int{d.N, d.C, d.H, d.W}, []int{d.K, d.C / d.G, d.R, d.S})
}

func seededDense(name string, ct config.ControllerType, k, n int, m mapping.FCMapping, s int64) seeded {
	return seed(name, farm.Job{HW: config.Default(ct), Kind: farm.Dense, M: 1, K: k, N: n, FCMapping: m, Seed: s},
		[]int{1, k}, []int{n, k})
}

// mixRows is one of every row kind of the benchmark's sweep mix.
func mixRows() []seeded {
	conv := tensor.ConvDims{N: 1, C: 64, H: 6, W: 6, K: 64, R: 3, S: 3, PadH: 1, PadW: 1}
	tk := func(n int) mapping.ConvMapping {
		return mapping.ConvMapping{TR: 1, TS: 1, TC: 1, TK: n, TG: 1, TN: 1, TX: 1, TY: 1}
	}
	return []seeded{
		seededConv("maeri-conv-tk1", config.MAERIDenseWorkload, 0, conv, tk(1), 41),
		seededConv("maeri-conv-tk8", config.MAERIDenseWorkload, 0, conv, tk(8), 41),
		seededDense("maeri-dense-basic", config.MAERIDenseWorkload, 1024, 256, mapping.BasicFC(), 42),
		seededDense("maeri-dense-tiled", config.MAERIDenseWorkload, 1024, 256, mapping.FCMapping{TS: 16, TK: 8, TN: 1}, 42),
		seededConv("sigma-conv-sparse", config.SIGMASparseGEMM, 50, conv, mapping.Basic(), 43),
		seededConv("tpu-conv", config.TPUOSDense, 0, conv, mapping.Basic(), 44),
	}
}

// alexnetRows are two full-size AlexNet geometries: grouped conv5 and fc8.
func alexnetRows() []seeded {
	conv5 := tensor.ConvDims{N: 1, C: 384, H: 13, W: 13, K: 256, R: 3, S: 3, G: 2, PadH: 1, PadW: 1}
	return []seeded{
		seededConv("alexnet-conv5", config.MAERIDenseWorkload, 0, conv5, mapping.Basic(), 45),
		seededDense("alexnet-fc8", config.SIGMASparseGEMM, 4096, 1000, mapping.BasicFC(), 46),
	}
}

func mustKey(t *testing.T, j farm.Job) string {
	t.Helper()
	key, err := j.Key()
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	return key
}

// TestLazyKeyColdWarmEager pins the named-key contract on every row kind
// of the sweep mix and two AlexNet geometries: a named job's key is the same
// on a first (cold) and a repeated (warm) call, neither builds an operand,
// and it is the key of the job's Materialize() — the eager job that carries
// the same generator name and the built tensors. It never equals the
// content key of the explicit twin with the very same operand bytes.
func TestLazyKeyColdWarmEager(t *testing.T) {
	for _, s := range append(mixRows(), alexnetRows()...) {
		cold := mustKey(t, s.lazy)
		if warm := mustKey(t, s.lazy); warm != cold {
			t.Errorf("%s: warm named key %s, cold %s", s.name, warm, cold)
		}
		if n := s.gens.Load(); n != 0 {
			t.Errorf("%s: Key generated operands %d times, want 0", s.name, n)
		}
		if got := mustKey(t, s.lazy.Materialize()); got != cold {
			t.Errorf("%s: materialised key %s, named %s", s.name, got, cold)
		}
		if content := mustKey(t, s.eager); content == cold {
			t.Errorf("%s: the named key equals the explicit twin's content key %s", s.name, content)
		}
	}
}

// TestExplicitOperandsBypassMemo: a job with explicit tensors keys by its own
// operand contents — a job with the same spec header but other weights keys
// differently — and a farm files a named job and its explicit twin each
// under its own key, so neither is served the other's result.
func TestExplicitOperandsBypassMemo(t *testing.T) {
	for _, s := range append(mixRows(), alexnetRows()...) {
		content := mustKey(t, s.eager)
		other := s.eager
		other.Weights = other.Weights.Clone()
		other.Weights.Data()[0]++
		if mustKey(t, other) == content {
			t.Errorf("%s: an explicit job's key ignored its operand contents", s.name)
		}
	}
	fm := farm.New(1)
	defer fm.Close()
	s := seededDense("dense", config.MAERIDenseWorkload, 16, 8, mapping.BasicFC(), 7)
	for _, j := range []farm.Job{s.lazy, s.eager} {
		res, err := fm.Do(j)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustKey(t, j); res.Key != want || res.Hit {
			t.Errorf("submission ran under key %s (hit %v), want a miss under %s", res.Key, res.Hit, want)
		}
	}
}

// TestLazyRunMatchesEager: a lazy job's result is the eager job's result,
// byte for byte, inline and through every cache tier.
func TestLazyRunMatchesEager(t *testing.T) {
	rows := mixRows()
	if !testing.Short() {
		rows = append(rows, alexnetRows()...)
	}
	for _, s := range rows {
		eager, err := farm.Run(s.eager)
		if err != nil {
			t.Fatalf("%s: eager run: %v", s.name, err)
		}
		lazy, err := farm.Run(s.lazy)
		if err != nil {
			t.Fatalf("%s: lazy run: %v", s.name, err)
		}
		if !bytes.Equal(farm.EncodeResult(eager), farm.EncodeResult(lazy)) {
			t.Errorf("%s: lazy and eager runs encode differently", s.name)
		}
	}
	var lazy []farm.Job
	for _, s := range mixRows() {
		lazy = append(lazy, s.lazy)
	}
	farmtest.AssertEquivalent(t, lazy)
}

// TestLazyGeneratorInvocations counts operand generations along every
// submission path: exactly one on a cold miss, none on a memory hit, a disk
// hit, a single-flight attach or a rejected submission, and one more when a
// spec has fallen out of both tiers and must be simulated again.
func TestLazyGeneratorInvocations(t *testing.T) {
	conv := tensor.ConvDims{N: 1, C: 2, H: 6, W: 6, K: 4, R: 3, S: 3}
	newRow := func(s int64) seeded {
		return seededConv(fmt.Sprint("conv-", s), config.MAERIDenseWorkload, 0, conv, mapping.Basic(), s)
	}
	do := func(t *testing.T, fm *farm.Farm, s seeded, wantHit bool, wantGens int64) {
		t.Helper()
		res, err := fm.Do(s.lazy)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hit != wantHit {
			t.Errorf("%s: hit = %v, want %v", s.name, res.Hit, wantHit)
		}
		if n := s.gens.Load(); n != wantGens {
			t.Errorf("%s: %d operand generations so far, want %d", s.name, n, wantGens)
		}
		if want := mustKey(t, s.lazy); res.Key != want {
			t.Errorf("%s: key %s, named %s", s.name, res.Key, want)
		}
	}

	t.Run("cold miss then memory hit", func(t *testing.T) {
		fm := farm.New(1)
		defer fm.Close()
		a := newRow(1)
		do(t, fm, a, false, 1)
		do(t, fm, a, true, 1)
	})

	t.Run("disk hit", func(t *testing.T) {
		ds, err := farm.NewDiskStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		fm := farm.New(1, farm.WithMaxEntries(1), farm.WithDiskStore(ds))
		defer fm.Close()
		a, b := newRow(1), newRow(2)
		do(t, fm, a, false, 1)
		do(t, fm, b, false, 1) // evicts a from the one-entry memory tier
		do(t, fm, a, true, 1)
		if st := fm.Stats(); st.DiskHits != 1 {
			t.Errorf("disk hits = %d, want 1 (stats %+v)", st.DiskHits, st)
		}
	})

	t.Run("evicted from both tiers", func(t *testing.T) {
		fm := farm.New(1, farm.WithMaxEntries(1))
		defer fm.Close()
		a, b := newRow(1), newRow(2)
		do(t, fm, a, false, 1)
		do(t, fm, b, false, 1)
		do(t, fm, a, false, 2) // operands rebuilt by the worker
	})

	t.Run("rejected by a full queue, then named", func(t *testing.T) {
		fm := farm.New(1, farm.WithMaxQueue(1))
		defer fm.Close()
		entered, release := make(chan struct{}), make(chan struct{})
		pinned := farmtest.Start(context.Background(), fm, newRow(1).lazy.WithFaultHook(func() { close(entered); <-release }))
		<-entered
		queued := farmtest.Start(context.Background(), fm, newRow(2).lazy)
		waitUntil(t, "the queue to fill", func() bool { return fm.Stats().Queued == 1 })
		c := newRow(3)
		if _, err := fm.Do(c.lazy); !errors.Is(err, farm.ErrQueueFull) {
			t.Fatalf("err = %v, want ErrQueueFull", err)
		}
		// Neither the rejection nor naming the job on the error path
		// builds an operand.
		mustKey(t, c.lazy)
		if n := c.gens.Load(); n != 0 {
			t.Errorf("rejected job generated operands %d times, want 0", n)
		}
		close(release)
		for _, wait := range []func() (farm.Result, error){pinned, queued} {
			if _, err := wait(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("single-flight attach", func(t *testing.T) {
		fm := farm.New(1)
		defer fm.Close()
		a := newRow(1)
		entered, release := make(chan struct{}), make(chan struct{})
		first := farmtest.Start(context.Background(), fm, a.lazy.WithFaultHook(func() { close(entered); <-release }))
		<-entered
		second := farmtest.Start(context.Background(), fm, a.lazy)
		waitUntil(t, "the second submission to attach", func() bool { return fm.Stats().Deduped == 1 })
		// The fault hook holds the worker before it builds the operands.
		if n := a.gens.Load(); n != 0 {
			t.Errorf("submitting and attaching generated operands: %d calls, want 0", n)
		}
		close(release)
		for _, wait := range []func() (farm.Result, error){first, second} {
			if _, err := wait(); err != nil {
				t.Fatal(err)
			}
		}
		if n := a.gens.Load(); n != 1 {
			t.Errorf("%d operand generations after both waiters finished, want 1", n)
		}
	})
}

// TestNamedKeyConcurrent hammers one never-seen named spec and a spread of
// distinct ones from 8 goroutines: the shared spec simulates once, on one
// operand build; run under -race.
func TestNamedKeyConcurrent(t *testing.T) {
	fm := farm.New(2)
	defer fm.Close()
	shared := seededDense("shared", config.MAERIDenseWorkload, 16, 8, mapping.BasicFC(), 1)
	wantShared := mustKey(t, shared.lazy)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := fm.Do(shared.lazy)
				if err != nil || res.Key != wantShared {
					t.Errorf("shared spec: key %s err %v, want %s", res.Key, err, wantShared)
				}
				own := seededDense("own", config.MAERIDenseWorkload, 16, 8, mapping.BasicFC(), int64(100+g*20+i))
				res, err = fm.Do(own.lazy)
				if want, _ := own.lazy.Key(); err != nil || res.Key != want {
					t.Errorf("distinct spec: key %s err %v, want %s", res.Key, err, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := fm.Stats(); st.Completed != 1+8*20 {
		t.Errorf("%d simulations, want 1 for the shared spec and 160 distinct (stats %+v)", st.Completed, st)
	}
	if n := shared.gens.Load(); n != 1 {
		t.Errorf("shared spec built its operands %d times, want 1", n)
	}
}

// FuzzLazyKeyEquality asserts the named-key contracts on arbitrary seeded
// specs. For each: the named key builds no operand and equals its
// Materialize()'s key, and differs from the explicit twin's content key.
// Across every spec the fuzzer feeds one process, two named keys collide
// exactly when the explicit twins' content keys do — so a keyed field
// missing from the spec encoding, which would alias two simulations under
// one named key, fails here (the content half is FuzzKeyEquality's).
func FuzzLazyKeyEquality(f *testing.F) {
	byNamed, byContent := map[string]string{}, map[string]string{}
	f.Add(uint8(2), uint8(6), uint8(4), uint8(3), uint8(1), uint8(2), int64(7), uint8(0), uint8(0), false)
	f.Add(uint8(2), uint8(6), uint8(4), uint8(3), uint8(1), uint8(2), int64(7), uint8(50), uint8(1), false)
	f.Add(uint8(5), uint8(9), uint8(7), uint8(0), uint8(0), uint8(1), int64(-3), uint8(0), uint8(2), true)
	f.Fuzz(func(t *testing.T, c, h, k, r, pad, tk uint8, seed int64, sparsity, ctrl uint8, dense bool) {
		ct := []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM, config.TPUOSDense}[ctrl%3]
		var s seeded
		if dense {
			s = seededDense("fuzz", ct, int(c%32)+1, int(k%32)+1, mapping.FCMapping{TS: int(tk%4) + 1, TK: 1, TN: 1}, seed)
		} else {
			if ct != config.SIGMASparseGEMM {
				sparsity = 0
			}
			d := tensor.ConvDims{N: 1, C: int(c%6) + 1, H: int(h%10) + 4, W: int(h%10) + 4,
				K: int(k%8) + 1, R: int(r%3) + 1, S: int(r%3) + 1, PadH: int(pad % 3), PadW: int(pad % 3)}
			m := mapping.ConvMapping{TR: d.R, TS: d.S, TC: 1, TK: int(tk%2) + 1, TG: 1, TN: 1, TX: 1, TY: 1}
			s = seededConv("fuzz", ct, int(sparsity%100), d, m, seed)
		}
		content, err := s.eager.Key()
		if err != nil {
			t.Fatalf("content key of a valid job errored: %v (%+v)", err, s.eager)
		}
		named, err := s.lazy.Key()
		if err != nil || s.gens.Load() != 0 {
			t.Fatalf("named key %s (err %v) after %d operand builds, want 0", named, err, s.gens.Load())
		}
		if m, err := s.lazy.Materialize().Key(); err != nil || m != named {
			t.Fatalf("materialised key %s (err %v) != named key %s for %+v", m, err, named, s.eager)
		}
		if named == content {
			t.Fatalf("named key equals the content key %s", content)
		}
		if prev, ok := byNamed[named]; ok && prev != content {
			t.Fatalf("named key %s names two simulations: content keys %s and %s", named, prev, content)
		}
		if prev, ok := byContent[content]; ok && prev != named {
			t.Fatalf("one simulation (content key %s) has two named keys: %s and %s", content, prev, named)
		}
		byNamed[named], byContent[content] = content, named
	})
}
