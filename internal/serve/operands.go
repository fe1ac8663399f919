package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/farm"
	"repro/internal/tensor"
)

// operandRegistry shares seeded operands among a server's in-flight
// requests. A sweep submits one layer under many mappings and
// configurations, so rows that name the same seededOperands are common;
// through the registry they hand the farm one generator, and the first
// row to miss builds the pair every other holder then simulates on. (The
// pack cache shares their derived forms across requests too, by the
// identity generate stamps on each tensor.) Sharing is safe because farm
// operands are read-only and the registry key is the generator's full
// input, so holders only ever share tensors that would have been
// bit-identical anyway.
//
// A holder is a named row (Server.name): a /simulate request from arrival
// until it is answered, a /batch row from its admission — before it waits
// for a fan-out slot, so the next row holds the set while this one still
// runs — until it is answered. An entry lives exactly as long as its
// holders: it is deleted when its last holder releases it, so nothing is
// retained between requests and the registry is empty whenever the server
// is idle. A job still in the farm after its row was answered (a deadline
// that fired mid-simulation) keeps its generator; a later row simply
// starts a fresh entry.
type operandRegistry struct {
	mu      sync.Mutex
	entries map[seededOperands]*operandEntry
	// builds counts the operand pairs the registry's jobs have generated.
	// A build costs milliseconds and up to megabytes, so the tests pin
	// every path that only names a job — a hit, an attach, a journal
	// replay, an error row — to none.
	builds atomic.Int64
}

type operandEntry struct {
	holders int
	get     func() (input, weights *tensor.Tensor)
}

func newOperandRegistry() *operandRegistry {
	return &operandRegistry{entries: make(map[seededOperands]*operandEntry)}
}

// lazyJob is JobRequest.lazyJob with the generator shared through the
// registry. The caller holds a reference until it calls release, which it
// must do exactly once, when it no longer needs the job's operands.
func (o *operandRegistry) lazyJob(req JobRequest) (job farm.Job, release func(), err error) {
	j, err := req.spec()
	if err != nil || j.DryRun {
		return j, func() {}, err
	}
	ops := operandsOf(j)
	o.mu.Lock()
	e := o.entries[ops]
	if e == nil {
		e = &operandEntry{get: sync.OnceValues(func() (input, weights *tensor.Tensor) {
			o.builds.Add(1)
			return ops.generate()
		})}
		o.entries[ops] = e
	}
	e.holders++
	o.mu.Unlock()
	return j.WithOperands(seededGenerator, e.get), func() {
		o.mu.Lock()
		if e.holders--; e.holders == 0 {
			delete(o.entries, ops)
		}
		o.mu.Unlock()
	}, nil
}

// len reports how many distinct operand sets are currently held.
func (o *operandRegistry) len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.entries)
}
