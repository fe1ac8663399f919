package graph

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/topi"
)

// OffloadFunc lets a caller intercept execution of individual nodes — this
// is how the Bifrost engine redirects conv2d and dense nodes to a simulated
// accelerator. It returns (result, true, nil) when it handled the node, or
// (nil, false, nil) to fall back to the CPU operator inventory.
type OffloadFunc func(n *Node, inputs []*tensor.Tensor) (*tensor.Tensor, bool, error)

// Executor evaluates a graph on the CPU operator inventory, optionally
// diverting nodes through an OffloadFunc. Like TVM's graph executor it
// evaluates one node at a time in topological order, so Offload is never
// called concurrently; idle cores go to the kernels under a node through
// tensor.ParallelFor.
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

func (e *Executor) evalNode(n *Node, values map[*Node]*tensor.Tensor, feeds map[string]*tensor.Tensor) (*tensor.Tensor, error) {
	ins := make([]*tensor.Tensor, len(n.Inputs))
	for i, in := range n.Inputs {
		v, ok := values[in]
		if !ok {
			return nil, fmt.Errorf("input %q not yet evaluated", in.Name)
		}
		ins[i] = v
	}
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
