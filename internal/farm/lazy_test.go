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

// seeded is one seeded job spec built both ways: eager carries the operand
// tensors, lazy carries a generator that regenerates them from the same
// seed (the bifrost-serve recipe: uniform input, uniform weights at
// seed+100, weights pruned to the sparsity ratio) and counts its calls.
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
	return seeded{name: name, eager: eager, lazy: spec.WithOperands(gen), gens: gens}
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

func mustKeyOf(t *testing.T, fm *farm.Farm, j farm.Job) string {
	t.Helper()
	key, err := fm.KeyOf(j)
	if err != nil {
		t.Fatalf("KeyOf: %v", err)
	}
	return key
}

// TestLazyKeyColdWarmEager: whatever the memo's state, a lazy job's key is
// the eager Job.Key() of the same spec — built once on a cold memo, looked
// up without generating on a warm one.
func TestLazyKeyColdWarmEager(t *testing.T) {
	fm := farm.New(1)
	defer fm.Close()
	for _, s := range append(mixRows(), alexnetRows()...) {
		want, err := s.eager.Key()
		if err != nil {
			t.Fatalf("%s: eager key: %v", s.name, err)
		}
		if got := mustKeyOf(t, fm, s.lazy); got != want {
			t.Errorf("%s: cold lazy key %s, eager %s", s.name, got, want)
		}
		if n := s.gens.Load(); n != 1 {
			t.Errorf("%s: cold KeyOf generated operands %d times, want 1", s.name, n)
		}
		if got := mustKeyOf(t, fm, s.lazy); got != want {
			t.Errorf("%s: warm lazy key %s, eager %s", s.name, got, want)
		}
		if n := s.gens.Load(); n != 1 {
			t.Errorf("%s: warm KeyOf generated operands (%d calls in total, want 1)", s.name, n)
		}
		if got, err := s.lazy.Key(); err != nil || got != want {
			t.Errorf("%s: Job.Key() of the lazy job = %s (err %v), eager %s", s.name, got, err, want)
		}
		if got := mustKeyOf(t, fm, s.eager); got != want {
			t.Errorf("%s: KeyOf(eager) = %s, want %s", s.name, got, want)
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
// hit or a single-flight attach of a known spec, and one more when a known
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
		if want, _ := s.eager.Key(); res.Key != want {
			t.Errorf("%s: key %s, eager %s", s.name, res.Key, want)
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
		do(t, fm, a, false, 2) // key from the memo, operands rebuilt by the worker
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
		// The error path names the job: the rejected submission already
		// taught the memo this spec, so no operand is generated or hashed.
		want, _ := c.eager.Key()
		if got := mustKeyOf(t, fm, c.lazy); got != want {
			t.Errorf("key of the rejected job %s, eager %s", got, want)
		}
		if n := c.gens.Load(); n != 1 {
			t.Errorf("rejected job generated operands %d times, want 1", n)
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
		if n := a.gens.Load(); n != 1 {
			t.Errorf("attach generated operands: %d calls, want 1", n)
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

// TestExplicitOperandsBypassMemo: a job with explicit tensors never reads
// the memo, even when a lazy job with the very same spec header has been
// memoised — its key covers its own operand contents.
func TestExplicitOperandsBypassMemo(t *testing.T) {
	fm := farm.New(1)
	defer fm.Close()
	s := seededDense("dense", config.MAERIDenseWorkload, 16, 8, mapping.BasicFC(), 7)
	memoised := mustKeyOf(t, fm, s.lazy)

	other := s.eager
	other.Weights = tensor.RandomUniform(999, 1, 8, 16) // same header, different contents
	want, err := other.Key()
	if err != nil {
		t.Fatal(err)
	}
	if want == memoised {
		t.Fatal("test is vacuous: different operands produced the same key")
	}
	if got := mustKeyOf(t, fm, other); got != want {
		t.Errorf("explicit-operand job keyed %s, want its own content key %s", got, want)
	}
	res, err := fm.Do(other)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != want {
		t.Errorf("explicit-operand submission ran under key %s, want %s", res.Key, want)
	}
}

// TestKeyMemoBounded drives more distinct specs through KeyOf than the memo
// may hold: occupancy stays within the bound, the oldest spec is really
// gone (its next lookup rebuilds), and every key is still the eager one.
func TestKeyMemoBounded(t *testing.T) {
	fm := farm.New(1)
	defer fm.Close()
	// Constant operands keep 65k cold builds cheap; the seed alone makes
	// each spec — and so each key — distinct.
	in, w := tensor.RandomUniform(1, 1, 1, 2), tensor.RandomUniform(2, 1, 2, 2)
	var gens [3]int
	row := func(s int64, gens *int) (eager, lazy farm.Job) {
		eager = farm.Job{HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Dense,
			FCMapping: mapping.BasicFC(), Seed: s, Input: in, Weights: w}
		return eager, eager.WithOperands(func() (*tensor.Tensor, *tensor.Tensor) {
			if gens != nil {
				*gens++
			}
			return in, w
		})
	}
	const last = farm.KeyMemoEntries + 10
	for s := int64(0); s <= last; s++ {
		var count *int
		if s == 0 {
			count = &gens[0]
		}
		_, lazy := row(s, count)
		mustKeyOf(t, fm, lazy)
		if n := fm.KeyMemoLen(); n > farm.KeyMemoEntries {
			t.Fatalf("memo holds %d entries after %d specs, bound %d", n, s+1, farm.KeyMemoEntries)
		}
	}
	for i, s := range []int64{0, farm.KeyMemoEntries / 2, last} {
		eager, lazy := row(s, &gens[i])
		want, _ := eager.Key()
		if got := mustKeyOf(t, fm, lazy); got != want {
			t.Errorf("seed %d: key %s after eviction churn, eager %s", s, got, want)
		}
	}
	// The oldest spec was built once at insertion and again after eviction;
	// the newest is still memoised and was not rebuilt by its lookup.
	if gens[0] != 2 || gens[2] != 0 {
		t.Errorf("generations: oldest spec %d (want 2: built, evicted, rebuilt), newest lookup %d (want 0)", gens[0], gens[2])
	}
}

// TestKeyMemoConcurrent hammers one never-seen spec and a spread of
// distinct ones from 8 goroutines; run under -race.
func TestKeyMemoConcurrent(t *testing.T) {
	fm := farm.New(2)
	defer fm.Close()
	shared := seededDense("shared", config.MAERIDenseWorkload, 16, 8, mapping.BasicFC(), 1)
	wantShared, _ := shared.eager.Key()
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
				want, _ := own.eager.Key()
				if got, err := fm.KeyOf(own.lazy); err != nil || got != want {
					t.Errorf("distinct spec: key %s err %v, want %s", got, err, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := fm.Stats(); st.Completed != 1 {
		t.Errorf("shared spec simulated %d times, want 1 (stats %+v)", st.Completed, st)
	}
}

// FuzzLazyKeyEquality asserts the spec → key memo's contract on arbitrary
// seeded jobs: through one long-lived farm, a lazy job's key — cold, then
// warm — is the eager Key() of the same spec with generated operands.
// Because the memo persists across iterations, any two fuzzed specs that
// aliased in it (a keyed field missing from the digest) would hand the
// second spec the first one's key and fail here.
func FuzzLazyKeyEquality(f *testing.F) {
	fm := farm.New(1)
	f.Cleanup(fm.Close)
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
		want, err := s.eager.Key()
		if err != nil {
			t.Fatalf("eager key of a valid job errored: %v (%+v)", err, s.eager)
		}
		for _, pass := range []string{"cold", "warm"} {
			if got, err := fm.KeyOf(s.lazy); err != nil || got != want {
				t.Fatalf("%s lazy key %s (err %v) != eager key %s for %+v", pass, got, err, want, s.eager)
			}
		}
	})
}
