package farm_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
)

// TestChaosPeerNetworkFaultRates is the distributed acceptance sweep: a
// peer tier whose network fails 25%, 50% or 100% of its round trips — with
// in-flight corruption and latency spikes mixed in — must cost only
// retries, quarantine and local recomputation, never a byte of the results.
func TestChaosPeerNetworkFaultRates(t *testing.T) {
	cases := []struct {
		name   string
		policy farmtest.FaultPolicy
	}{
		{"quarter", farmtest.FaultPolicy{ErrRate: 0.25, Seed: 11}},
		{"half_with_corruption", farmtest.FaultPolicy{ErrRate: 0.5, CorruptRate: 0.25, Seed: 12}},
		{"corrupt_frames_on_the_wire", farmtest.FaultPolicy{CorruptRate: 0.5, Seed: 13}},
		{"latency_spikes", farmtest.FaultPolicy{CorruptRate: 0.25, Latency: 200 * time.Microsecond, Seed: 14}},
		{"total_outage", farmtest.FaultPolicy{ErrRate: 1, Seed: 15}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			farmtest.AssertPeerFaultTolerant(t, tc.policy)
		})
	}
}

// TestRingChurnMidSweepByteIdentical runs the reference sweep while the
// membership loses and regains a member between (and during) passes: each
// job's owner comes from a ring built over the membership of its moment. Whatever the churn does to placement, the
// results must stay byte-identical to single-node execution — ownership
// moves work around, never changes what the work computes.
func TestRingChurnMidSweepByteIdentical(t *testing.T) {
	jobs := farmtest.Jobs()
	want := farmtest.RunFresh(t, jobs)

	// Three "nodes", each its own farm: the ring decides which farm owns
	// each job, exactly as a coordinator would.
	nodes := map[string]*farm.Farm{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("node-%d", i)
		nodes[name] = farm.New(2)
		defer nodes[name].Close()
	}
	full, without := farm.NewRing(0), farm.NewRing(0)
	for name := range nodes {
		full.Add(name)
		if name != "node-1" {
			without.Add(name)
		}
	}

	runSweep := func(pass string, ringFor func(i int) *farm.Ring) {
		t.Helper()
		for i, j := range jobs {
			key, err := j.Key()
			if err != nil {
				t.Fatalf("%s: job %d key: %v", pass, i, err)
			}
			owner := ringFor(i).Owners(key, 1)[0]
			res, err := nodes[owner].Do(j)
			if err != nil {
				t.Fatalf("%s: job %d on %s: %v", pass, i, owner, err)
			}
			if err := farmtest.DiffResults(want[i], res); err != nil {
				t.Errorf("%s: job %d on %s diverged: %v", pass, i, owner, err)
			}
		}
	}

	runSweep("full ring", func(int) *farm.Ring { return full })
	runSweep("after losing node-1", func(int) *farm.Ring { return without })
	// Churn mid-sweep: node-1 rejoins halfway through the pass, so early
	// jobs place on the 2-member ring and late jobs on the 3-member one.
	runSweep("node-1 rejoining mid-sweep", func(i int) *farm.Ring {
		if i < len(jobs)/2 {
			return without
		}
		return full
	})
}
