package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/stonne/config"
	"repro/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata/alexnet_outputs.golden from the current engines")

const alexnetGolden = "testdata/alexnet_outputs.golden"

// halfZeroAlexNet is the benchmark's AlexNet: every weight whose magnitude
// lies below the median of its N(0, σ) initialiser (σ = 0.05 for the convs,
// 0.02 for the dense layers) is zeroed, so about half of each layer is zero.
func halfZeroAlexNet(seed int64) *graph.Graph {
	const medianAbsNormal = 0.6744897501960817 // median of |x| for x ~ N(0, 1)
	g := models.AlexNet(seed)
	for _, n := range g.Nodes() {
		if n.Op != graph.OpConstant || !strings.HasSuffix(n.Name, ".weight") {
			continue
		}
		sigma := float32(0.05)
		if strings.HasPrefix(n.Name, "fc") {
			sigma = 0.02
		}
		cut := sigma * medianAbsNormal
		data := n.Value.Data()
		for i, v := range data {
			if v < cut && v > -cut {
				data[i] = 0
			}
		}
	}
	return g
}

// TestAlexNetOutputsGolden pins full AlexNet's output bytes and every
// layer record on MAERI and SIGMA, over half-zero weights: one SHA-256 per
// output tensor and per LayerRecord. A host kernel, an engine or a lowering
// that moves a single output bit or counter fails here. Regenerate with
// -update only for a change that means to alter the arithmetic.
func TestAlexNetOutputsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full AlexNet")
	}
	g := halfZeroAlexNet(2)
	in := tensor.RandomUniform(5, 1, 1, 3, 227, 227)
	var got []string
	for _, ct := range []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM} {
		s, err := NewSession(config.Default(ct))
		if err != nil {
			t.Fatal(err)
		}
		outs, err := s.Run(g, map[string]*tensor.Tensor{"data": in})
		if err != nil {
			t.Fatalf("%s: %v", ct, err)
		}
		h := outs[0].ContentHash()
		got = append(got, fmt.Sprintf("%s output %s", ct, hex.EncodeToString(h[:])))
		for _, r := range s.Records() {
			// %#v spells out every field, every Stats counter included;
			// %v would take LayerRecord's one-line String summary.
			h := sha256.Sum256([]byte(fmt.Sprintf("%#v", r)))
			got = append(got, fmt.Sprintf("%s %s %s", ct, r.Name, hex.EncodeToString(h[:])))
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(alexnetGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(alexnetGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(alexnetGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, the test produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("AlexNet output changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
