package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
	"repro/internal/tensor"
)

var updateOperands = flag.Bool("update-operands", false,
	"rewrite testdata/seeded_operands.golden; refused unless seededGenerator's version changed")

// operandGoldenSpecs is the fixed spec set the generator golden covers:
// conv and dense, sparsity 0 and 50, a grouped conv and negative seeds.
func operandGoldenSpecs() []struct {
	name string
	req  JobRequest
} {
	sigma50 := ArchSpec{Controller: "sigma", Sparsity: 50}
	return []struct {
		name string
		req  JobRequest
	}{
		{"conv-maeri", JobRequest{Op: "conv2d", Conv: &ConvSpec{C: 3, H: 7, K: 4, R: 3}, Seed: 5}},
		{"conv-sigma-50-grouped", JobRequest{Arch: sigma50, Op: "conv2d",
			Conv: &ConvSpec{C: 4, H: 6, K: 8, R: 3, G: 2, Pad: 1}, Seed: 11}},
		{"conv-tpu-negative-seed", JobRequest{Arch: ArchSpec{Controller: "tpu"}, Op: "conv2d",
			Conv: &ConvSpec{C: 2, H: 5, W: 9, K: 3, R: 2, S: 3}, Seed: -3}},
		{"dense-maeri", JobRequest{Op: "dense", Dense: &DenseSpec{K: 33, N: 17}, Seed: 2}},
		{"dense-sigma-50", JobRequest{Arch: sigma50, Op: "dense", Dense: &DenseSpec{M: 2, K: 64, N: 31}, Seed: 9}},
		{"dense-sigma-50-negative-seed", JobRequest{Arch: sigma50, Op: "dense",
			Dense: &DenseSpec{K: 128, N: 16}, Seed: -1234567890123}},
	}
}

// operandDigest is the SHA-256 of a generated operand pair's shapes and
// element bits, input first. It reads the bytes, never a tensor's stamped
// identity.
func operandDigest(input, weights *tensor.Tensor) [sha256.Size]byte {
	h := sha256.New()
	for _, t := range []*tensor.Tensor{input, weights} {
		binary.Write(h, binary.LittleEndian, int64(t.Rank()))
		for _, d := range t.Shape() {
			binary.Write(h, binary.LittleEndian, int64(d))
		}
		tensor.WriteFloatBits(h, t.Data())
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// TestSeededOperandsGolden pins what the seeded generator returns. A seeded
// job is keyed by its spec and seededGenerator, never by its operand bytes,
// so a generator whose output moved under an unchanged name would serve
// results computed on other operands. The golden records the generator
// name it was written under, and -update-operands rewrites it only when
// that name changed:
//
//	go test ./internal/serve/ -run TestSeededOperandsGolden -update-operands
func TestSeededOperandsGolden(t *testing.T) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# SHA-256 of seededOperands.generate's input and weights (shapes and bits) per spec.\n")
	fmt.Fprintf(&buf, "# Seeded keys name the generator, not these bytes: regenerate only with a version bump.\n")
	fmt.Fprintf(&buf, "generator\t%s\n", seededGenerator)
	for _, g := range operandGoldenSpecs() {
		j, err := g.req.spec()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		fmt.Fprintf(&buf, "%s\t%x\n", g.name, operandDigest(operandsOf(j).generate()))
	}
	path := filepath.Join("testdata", "seeded_operands.golden")
	want, readErr := os.ReadFile(path)
	if bytes.Equal(want, buf.Bytes()) {
		return
	}
	pinned := goldenGenerator(want)
	if *updateOperands {
		if readErr == nil && pinned == seededGenerator {
			t.Fatalf("the generator's output changed under the name %q it was pinned with: bump its version first", pinned)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	if readErr != nil {
		t.Fatalf("reading the generator golden: %v", readErr)
	}
	if pinned == seededGenerator {
		t.Fatalf("seeded operands changed without a generator version bump (%s):\n--- want\n%s--- got\n%s", pinned, want, buf.Bytes())
	}
	t.Fatalf("generator renamed %s → %s: regenerate the golden with -update-operands", pinned, seededGenerator)
}

// goldenGenerator returns the generator name a golden file was written
// under, or "" when it records none.
func goldenGenerator(golden []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(golden))
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "generator\t"); ok {
			return name
		}
	}
	return ""
}

// TestSeededNamingAllocBound pins every path that only names a seeded job
// to zero operand builds, on fresh servers: a memory hit, a disk hit, a
// single-flight attach, a sweep-journal replay after a restart, and the key
// a 429 or 504 row carries. The rows are K1024×N256 dense jobs, whose
// operands are 1 MiB of weights: a replayed row must also allocate well
// under 64 KiB.
func TestSeededNamingAllocBound(t *testing.T) {
	row := func(seed int64) JobRequest {
		return JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "dense", Dense: &DenseSpec{K: 1024, N: 256},
			FCMapping: []int{4, 4, 1}, Seed: seed}
	}
	serve := func(t *testing.T, fm *farm.Farm, opts ...ServerOption) (*Server, string) {
		srv := NewServer(fm, opts...)
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); fm.Close() })
		return srv, ts.URL
	}
	// builds runs fn and returns how many operand pairs srv generated.
	builds := func(srv *Server, fn func()) int64 {
		before := srv.operands.builds.Load()
		fn()
		return srv.operands.builds.Load() - before
	}
	post := func(t *testing.T, url string, req JobRequest, wantStatus int) {
		t.Helper()
		status, resp := postSimulate(t, url, req)
		if status != wantStatus {
			t.Fatalf("HTTP %d (%s), want %d", status, resp.Error, wantStatus)
		}
		if want := namedKey(t, req); resp.Key != want {
			t.Fatalf("row key %q, want the named key %s", resp.Key, want)
		}
	}

	t.Run("memory and disk hits", func(t *testing.T) {
		ds, err := farm.NewDiskStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		fm := farm.New(1, farm.WithDiskStore(ds))
		srv, url := serve(t, fm)
		if n := builds(srv, func() { post(t, url, row(1), http.StatusOK) }); n != 1 {
			t.Fatalf("a miss built %d operand pairs, want 1", n)
		}
		// A computed row waits on disk; the repeat is a disk hit that
		// promotes it, and the next a memory hit.
		if n := builds(srv, func() { post(t, url, row(1), http.StatusOK); post(t, url, row(1), http.StatusOK) }); n != 0 {
			t.Errorf("a disk hit and a memory hit built %d operand pairs, want 0", n)
		}
		if st := fm.Stats(); st.DiskHits != 1 || st.Hits != 2 {
			t.Errorf("hits %d (disk %d), want 2 (disk 1)", st.Hits, st.DiskHits)
		}
	})

	t.Run("single-flight attach", func(t *testing.T) {
		fm := farm.New(1)
		srv, url := serve(t, fm)
		started, release := make(chan struct{}), make(chan struct{})
		pinned := farmtest.Start(context.Background(), fm, pinJob(0, started, release))
		<-started
		body, err := json.Marshal(row(2))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		statuses := make([]int, 2)
		attached := builds(srv, func() {
			for i := range statuses {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp, err := http.Post(url+"/simulate", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					statuses[i] = resp.StatusCode
				}()
			}
			waitFor(t, "the second request to attach", func() bool { return fm.Stats().Deduped == 1 })
		})
		if attached != 0 {
			t.Errorf("submitting and attaching built %d operand pairs, want 0", attached)
		}
		ran := builds(srv, func() {
			close(release)
			wg.Wait()
			if _, err := pinned(); err != nil {
				t.Fatal(err)
			}
		})
		if ran != 1 || statuses[0] != http.StatusOK || statuses[1] != http.StatusOK {
			t.Errorf("statuses %v after %d operand builds, want 200s after 1", statuses, ran)
		}
	})

	t.Run("429 and 504 rows", func(t *testing.T) {
		full := farm.New(1, farm.WithMaxQueue(1))
		fullSrv, fullURL := serve(t, full)
		slow := farm.New(1)
		slowSrv, slowURL := serve(t, slow)
		release := make(chan struct{})
		var waits []func() (farm.Result, error)
		for i, fm := range []*farm.Farm{full, slow} {
			started := make(chan struct{})
			waits = append(waits, farmtest.Start(context.Background(), fm, pinJob(i, started, release)))
			<-started
		}
		waits = append(waits, farmtest.Start(context.Background(), full, pinJob(2, make(chan struct{}), release)))
		waitFor(t, "the queue to fill", func() bool { return full.Stats().Queued == 1 })
		if n := builds(fullSrv, func() { post(t, fullURL, row(3), http.StatusTooManyRequests) }); n != 0 {
			t.Errorf("naming a 429 row built %d operand pairs, want 0", n)
		}
		deadline := row(4)
		deadline.TimeoutMS = 20
		if n := builds(slowSrv, func() { post(t, slowURL, deadline, http.StatusGatewayTimeout) }); n != 0 {
			t.Errorf("naming a 504 row built %d operand pairs, want 0", n)
		}
		close(release)
		for _, wait := range waits {
			wait()
		}
	})

	t.Run("sweep journal replay", func(t *testing.T) {
		root := t.TempDir()
		boot := func() (*farm.Farm, *Server, string) {
			ds, err := farm.NewDiskStore(filepath.Join(root, "cache"), 0)
			if err != nil {
				t.Fatal(err)
			}
			fm := farm.New(1, farm.WithDiskStore(ds))
			srv, url := serve(t, fm, WithSweepDir(filepath.Join(root, "sweeps")))
			return fm, srv, url
		}
		var reqs []JobRequest
		for seed := int64(5); seed < 13; seed++ {
			reqs = append(reqs, row(seed))
		}
		first, _, url := boot()
		want := postSweepNDJSON(t, url, "sweep_id=named", reqs)
		first.Close()
		fm, srv, url := boot() // a restart: cold memory, the journal and disk warm
		var got []JobResponse
		var before, after runtime.MemStats
		n := builds(srv, func() {
			runtime.ReadMemStats(&before)
			got = postSweepNDJSON(t, url, "sweep_id=named&resume=true", reqs)
			runtime.ReadMemStats(&after)
		})
		assertSweepRows(t, "replay", want, got)
		if n != 0 || fm.Stats().Submitted != 0 {
			t.Errorf("the replay built %d operand pairs and submitted %d jobs, want 0 and 0", n, fm.Stats().Submitted)
		}
		if perRow := (after.TotalAlloc - before.TotalAlloc) / uint64(len(reqs)); perRow >= 64<<10 {
			t.Errorf("a replayed row allocates %d B, want < 64 KiB", perRow)
		} else {
			t.Logf("%d B per replayed row", perRow)
		}
	})
}
