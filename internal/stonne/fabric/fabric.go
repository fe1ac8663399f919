// Package fabric implements the microarchitectural components shared by the
// simulated accelerators (Figure 1 of the paper): the distribution network
// that delivers inputs and weights to the multiplier switches, the
// reduction networks (MAERI's ART, the STIFT-style fold-enabled network and
// the TPU's temporal reduction), the accumulation buffer, and a
// cycle-ticked systolic mesh. The oracle package drives the MAERI/SIGMA
// components step by step and ticks the TPU mesh cycle by cycle; the
// production engines use only the closed-form Depth.
package fabric

import (
	"fmt"
	"math/bits"
)

// DistributionNetwork models MAERI's chubby-tree distribution fabric: up to
// Bandwidth distinct scalar values can be injected per cycle, and each value
// may be multicast to any set of multiplier switches at no extra cost (the
// tree replicates it on the way down).
type DistributionNetwork struct {
	Bandwidth int

	// Counters.
	Elements int64
	Cycles   int64
}

// NewDistributionNetwork validates the bandwidth and returns the network.
func NewDistributionNetwork(bandwidth int) (*DistributionNetwork, error) {
	if bandwidth < 1 {
		return nil, fmt.Errorf("fabric: distribution bandwidth must be ≥ 1, got %d", bandwidth)
	}
	return &DistributionNetwork{Bandwidth: bandwidth}, nil
}

// Deliver accounts for the distribution of `unique` distinct values and
// returns the number of cycles the transfer occupies the network.
func (d *DistributionNetwork) Deliver(unique int64) int64 {
	if unique <= 0 {
		return 0
	}
	cycles := (unique + int64(d.Bandwidth) - 1) / int64(d.Bandwidth)
	d.Elements += unique
	d.Cycles += cycles
	return cycles
}

// ReduceKind selects the reduction network implementation.
type ReduceKind int

// Reduction network kinds.
const (
	ART      ReduceKind = iota // MAERI's augmented reduction tree (ASNETWORK)
	FEN                        // STIFT fold-enabled network (FENETWORK)
	Temporal                   // TPU temporal reduction (TEMPORALRN)
)

// ReductionNetwork models the spatial reduction fabric: a pipelined adder
// tree that combines the partial products of each virtual neuron and drains
// up to Bandwidth partial sums per cycle to the collector.
type ReductionNetwork struct {
	Kind      ReduceKind
	Bandwidth int

	// Counters.
	Psums  int64 // partial values combined spatially (the psum metric)
	Drains int64 // results handed to the collection bus
	Cycles int64
}

// NewReductionNetwork validates the bandwidth and returns the network.
func NewReductionNetwork(kind ReduceKind, bandwidth int) (*ReductionNetwork, error) {
	if bandwidth < 1 {
		return nil, fmt.Errorf("fabric: reduction bandwidth must be ≥ 1, got %d", bandwidth)
	}
	return &ReductionNetwork{Kind: kind, Bandwidth: bandwidth}, nil
}

// Depth returns the pipeline depth (in cycles) of the tree for a virtual
// neuron of the given size: ⌈log2(vn)⌉ adder levels. The temporal network
// has no spatial tree. For virtual-neuron sizes that are not a power of
// two, MAERI's ART needs one extra forwarding-link hop to merge the folded
// sub-trees, which the STIFT fold-enabled network (FEN) performs inside its
// spatio-temporal levels — the microarchitectural difference between the
// ASNETWORK and FENETWORK options of Table III.
func (r *ReductionNetwork) Depth(vnSize int) int {
	if r.Kind == Temporal || vnSize <= 1 {
		return 0
	}
	depth := bits.Len(uint(vnSize - 1))
	if r.Kind == ART && vnSize&(vnSize-1) != 0 {
		depth++
	}
	return depth
}

// Reduce combines vnSize partial products into one result through the tree.
// It returns the values-combined count added to the psum metric
// (vnSize − 1 adder firings per result). The ART and FEN trees both support
// arbitrary VN sizes via forwarding links, so the count is identical; they
// differ in Depth pipelining for folded (non-power-of-two) configurations,
// which FEN handles without the extra forwarding level ART needs.
func (r *ReductionNetwork) Reduce(vnSize int) int64 {
	if vnSize <= 1 {
		return 0
	}
	p := int64(vnSize - 1)
	r.Psums += p
	return p
}

// ReduceMany is the bulk form of Reduce: `count` virtual neurons of the
// given size reduce simultaneously. It returns the psums added.
func (r *ReductionNetwork) ReduceMany(vnSize int, count int64) int64 {
	if vnSize <= 1 || count <= 0 {
		return 0
	}
	p := int64(vnSize-1) * count
	r.Psums += p
	return p
}

// Drain accounts for handing `results` psums to the collection bus and
// returns the cycles consumed.
func (r *ReductionNetwork) Drain(results int64) int64 {
	if results <= 0 {
		return 0
	}
	cycles := (results + int64(r.Bandwidth) - 1) / int64(r.Bandwidth)
	r.Drains += results
	r.Cycles += cycles
	return cycles
}

// AccumulationBuffer models the psum buffer behind the reduction network.
// With the buffer present, temporal accumulation is a local read-modify-
// write; without it, every non-final partial must be recirculated through
// the distribution network, costing distribution bandwidth (the behaviour
// that makes accumulation-buffer-less MAERI mappings with small VNs slow).
type AccumulationBuffer struct {
	Present bool

	Writes       int64
	Reads        int64
	recirculated int64
}

// NewAccumulationBuffer returns a buffer model.
func NewAccumulationBuffer(present bool) *AccumulationBuffer {
	return &AccumulationBuffer{Present: present}
}

// Accumulate records `n` partial results being accumulated. `first` marks
// the first reduction step of these outputs (no previous partial exists);
// on every other step the previous partial is read back. It returns the
// number of values that must be recirculated through the distribution
// network, which is zero when the buffer is present (the read is a local
// read-modify-write) and n otherwise.
func (a *AccumulationBuffer) Accumulate(n int64, first bool) int64 {
	a.Writes += n
	if first {
		return 0
	}
	a.Reads += n
	if a.Present {
		return 0
	}
	a.recirculated += n
	return n
}

// Recirculated returns the count of psums recirculated through the
// distribution network because no accumulation buffer was present.
func (a *AccumulationBuffer) Recirculated() int64 { return a.recirculated }
