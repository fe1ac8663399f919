package graph

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
	"repro/internal/topi"
)

// OffloadFunc lets a caller intercept execution of individual nodes — this
// is how the Bifrost engine redirects conv2d and dense nodes to a simulated
// accelerator. It returns (result, true, nil) when it handled the node, or
// (nil, false, nil) to fall back to the CPU operator inventory.
type OffloadFunc func(n *Node, inputs []*tensor.Tensor) (*tensor.Tensor, bool, error)

// Executor evaluates a graph on the CPU operator inventory, optionally
// diverting nodes through an OffloadFunc.
//
// With more than one core (GOMAXPROCS > 1) Run uses wavefront scheduling: a
// node becomes runnable the moment all of its inputs have been evaluated, so
// independent branches of the model execute concurrently (each on its own
// goroutine, e.g. each submitting its own simulation to the farm). Offload
// must then be safe for concurrent use. At GOMAXPROCS 1 the graph evaluates
// serially in topological order. Every node evaluates exactly once with
// exactly the same inputs either way, so the outputs are bitwise identical.
type Executor struct {
	Graph   *Graph
	Offload OffloadFunc
}

// Run evaluates the graph for the given named input feeds and returns the
// values of the graph outputs in order.
func (e *Executor) Run(feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	if err := e.Graph.InferShapes(); err != nil {
		return nil, err
	}
	order, err := e.Graph.TopoSort()
	if err != nil {
		return nil, err
	}
	if workers := min(runtime.GOMAXPROCS(0), len(order)); workers > 1 {
		return e.runParallel(order, feeds, workers)
	}
	values := make(map[*Node]*tensor.Tensor, len(order))
	for _, n := range order {
		v, err := e.evalNode(n, values, feeds)
		if err != nil {
			return nil, fmt.Errorf("graph: executing node %q (%s): %w", n.Name, n.Op, err)
		}
		if !tensor.ShapeEq(v.Shape(), n.OutShape) {
			return nil, fmt.Errorf("graph: node %q produced shape %v, inferred %v", n.Name, v.Shape(), n.OutShape)
		}
		values[n] = v
	}
	outs := make([]*tensor.Tensor, len(e.Graph.Outputs))
	for i, n := range e.Graph.Outputs {
		outs[i] = values[n]
	}
	return outs, nil
}

// runParallel evaluates the graph with topo-level wavefront scheduling: a
// fixed worker pool drains a ready queue, and completing a node unlocks the
// consumers whose remaining input count drops to zero. Node evaluation is
// deterministic and every node sees exactly the inputs serial execution
// would hand it, so outputs are bit-identical to Run's serial path; only
// wall-clock time changes.
func (e *Executor) runParallel(order []*Node, feeds map[string]*tensor.Tensor, workers int) ([]*tensor.Tensor, error) {
	n := len(order)
	index := make(map[*Node]int, n)
	for i, node := range order {
		index[node] = i
	}
	values := make([]*tensor.Tensor, n)
	remaining := make([]int32, n) // input edges not yet satisfied
	consumers := make([][]int, n) // edges out of each node (duplicates kept)
	for i, node := range order {
		remaining[i] = int32(len(node.Inputs))
		for _, in := range node.Inputs {
			j := index[in]
			consumers[j] = append(consumers[j], i)
		}
	}

	// Buffered to the node count so completion never blocks on the send.
	ready := make(chan int, n)
	for i := range order {
		if remaining[i] == 0 {
			ready <- i
		}
	}
	var pending atomic.Int32
	pending.Store(int32(n))
	var stop atomic.Bool
	var mu sync.Mutex
	firstErr := error(nil)
	firstErrIdx := n // deterministic: keep the error of the earliest topo index
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				node := order[i]
				// After a failure we stop evaluating but keep draining so
				// every queued node is accounted for and the pool exits.
				if !stop.Load() {
					ins := make([]*tensor.Tensor, len(node.Inputs))
					for j, in := range node.Inputs {
						ins[j] = values[index[in]]
					}
					v, err := e.evalNodeInputs(node, ins, feeds)
					if err == nil && !tensor.ShapeEq(v.Shape(), node.OutShape) {
						err = fmt.Errorf("graph: node %q produced shape %v, inferred %v", node.Name, v.Shape(), node.OutShape)
					} else if err != nil {
						err = fmt.Errorf("graph: executing node %q (%s): %w", node.Name, node.Op, err)
					}
					if err != nil {
						mu.Lock()
						if i < firstErrIdx {
							firstErr, firstErrIdx = err, i
						}
						mu.Unlock()
						stop.Store(true)
					} else {
						values[i] = v
					}
				}
				for _, c := range consumers[i] {
					if atomic.AddInt32(&remaining[c], -1) == 0 {
						ready <- c
					}
				}
				if pending.Add(-1) == 0 {
					close(ready)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	outs := make([]*tensor.Tensor, len(e.Graph.Outputs))
	for i, node := range e.Graph.Outputs {
		outs[i] = values[index[node]]
	}
	return outs, nil
}

func (e *Executor) evalNode(n *Node, values map[*Node]*tensor.Tensor, feeds map[string]*tensor.Tensor) (*tensor.Tensor, error) {
	ins := make([]*tensor.Tensor, len(n.Inputs))
	for i, in := range n.Inputs {
		v, ok := values[in]
		if !ok {
			return nil, fmt.Errorf("input %q not yet evaluated", in.Name)
		}
		ins[i] = v
	}
	return e.evalNodeInputs(n, ins, feeds)
}

// evalNodeInputs evaluates one node given its already-gathered input
// values. It is the shared core of the serial and wavefront executors.
func (e *Executor) evalNodeInputs(n *Node, ins []*tensor.Tensor, feeds map[string]*tensor.Tensor) (*tensor.Tensor, error) {
	if e.Offload != nil {
		v, handled, err := e.Offload(n, ins)
		if err != nil {
			return nil, err
		}
		if handled {
			return v, nil
		}
	}
	switch n.Op {
	case OpInput:
		v, ok := feeds[n.Name]
		if !ok {
			return nil, fmt.Errorf("no feed provided for input %q", n.Name)
		}
		if !tensor.ShapeEq(v.Shape(), n.OutShape) {
			return nil, fmt.Errorf("feed for %q has shape %v, want %v", n.Name, v.Shape(), n.OutShape)
		}
		return v, nil
	case OpConstant:
		return n.Value, nil
	case OpConv2D:
		d, err := ConvDimsOf(n)
		if err != nil {
			return nil, err
		}
		if n.Attrs.DataLayout == tensor.NHWC {
			return topi.Conv2DNHWC(ins[0], ins[1], d)
		}
		return topi.Conv2DNCHW(ins[0], ins[1], d)
	case OpDense:
		return topi.Dense(ins[0], ins[1])
	case OpBiasAdd:
		return topi.BiasAdd(ins[0], ins[1])
	case OpReLU:
		return topi.ReLU(ins[0]), nil
	case OpSigmoid:
		return topi.Sigmoid(ins[0]), nil
	case OpTanh:
		return topi.Tanh(ins[0]), nil
	case OpMaxPool:
		return topi.Pool2D(ins[0], topi.MaxPool, n.Attrs.PoolKernel, n.Attrs.PoolStride, n.Attrs.PoolPad)
	case OpAvgPool:
		return topi.Pool2D(ins[0], topi.AvgPool, n.Attrs.PoolKernel, n.Attrs.PoolStride, n.Attrs.PoolPad)
	case OpSoftmax:
		return topi.Softmax(ins[0]), nil
	case OpLRN:
		return topi.LRN(ins[0], n.Attrs.LRNSize, n.Attrs.LRNAlpha, n.Attrs.LRNBeta, n.Attrs.LRNBias)
	case OpFlatten:
		return topi.Flatten(ins[0]), nil
	case OpAdd:
		return topi.Add(ins[0], ins[1])
	case OpBatchNorm:
		return topi.BatchNormInference(ins[0], ins[1], ins[2], ins[3], ins[4], n.Attrs.Epsilon)
	case OpDropout:
		return ins[0].Clone(), nil // inference-mode dropout is the identity
	}
	return nil, fmt.Errorf("no CPU implementation for op %q", n.Op)
}
