package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/farm"
)

// TestMetricFamiliesDocumented keeps README's Observability table and the
// served families in step: it scrapes a solo node, a coordinator and a
// replicated worker after one job each, and the table must name exactly
// the families those scrapes declare — no more, no fewer.
func TestMetricFamiliesDocumented(t *testing.T) {
	solo, _ := newTestServer(t)
	worker := newWorkerNode(t)
	coordFarm := farm.New(1)
	coord := httptest.NewServer(NewServer(coordFarm, WithPeers([]Peer{{Name: "w1", URL: worker.URL}})))
	t.Cleanup(func() { coord.Close(); coordFarm.Close() })
	replicated := newReplCluster(t, 2, 2)[0]

	served := map[string]bool{}
	for _, base := range []string{solo.URL, coord.URL, replicated.ts.URL} {
		req := JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "dense", Dense: &DenseSpec{K: 16, N: 8}, Seed: 1}
		if code, jr := postSimulate(t, base, req); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d (%s)", base, code, jr.Error)
		}
		for _, line := range strings.Split(scrapeMetrics(t, base), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				served[f[2]] = true
			}
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Observability\n")
	if !ok {
		t.Fatal("README has no Observability section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(bifrost_[a-z_]+)").FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}

	var missing, stale []string
	for f := range served {
		if !documented[f] {
			missing = append(missing, f)
		}
	}
	for f := range documented {
		if !served[f] {
			stale = append(stale, f)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("served but missing from README's Observability table: %s", strings.Join(missing, ", "))
	}
	if len(stale) > 0 {
		t.Errorf("in README's Observability table but served by no node: %s", strings.Join(stale, ", "))
	}
}
