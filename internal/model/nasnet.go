package model

import (
	"fmt"

	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
)

// NASNet builds NASNet-A (Zoph et al., CVPR 2018) at the given square
// input size (the canonical size is 331). NASNet is a stack of searched
// "normal" and "reduction" cells, each combining its two predecessor
// cells' outputs through separable convolutions, poolings and elementwise
// additions, concatenated at the end — a much wider, more branch-heavy
// graph than Inception-v3, which is exactly why the paper uses it as the
// stress benchmark.
//
// Cell composition here follows the NASNet-A search result with separable
// convolutions expanded into their depthwise + pointwise kernels. The
// layout — stem, two stem reduction cells, three stacks of six normal
// cells separated by reduction cells, head — yields 374 operators,
// matching the paper's reported operator count exactly (the paper lists
// 374 operators and 576 dependencies).
func NASNet(dev gpu.Device, link gpu.Link, inputSize int) (*Net, error) {
	b := NewBuilder(fmt.Sprintf("nasnet-a-%d", inputSize), dev, link)

	in := b.Input(3, inputSize, inputSize)
	stem := b.Conv(in, 96, 3, 3, 2, 2, 0, 0, "stem.conv")

	// Two stem reduction cells at small filter counts, then three
	// stacks of six normal cells with reduction cells between, doubling
	// filters at each reduction: the NASNet-A (6 @ large) layout.
	h2, h := stem, stem
	h2, h = h, reductionCell(b, h, h2, 42, "stemR0")
	h2, h = h, reductionCell(b, h, h2, 84, "stemR1")
	filters := 168
	for stack := 0; stack < 3; stack++ {
		for i := 0; i < 6; i++ {
			h2, h = h, normalCell(b, h, h2, filters, fmt.Sprintf("s%dn%d", stack, i))
		}
		if stack < 2 {
			filters *= 2
			h2, h = h, reductionCell(b, h, h2, filters, fmt.Sprintf("s%dr", stack))
		}
	}
	_ = h2

	x := b.GlobalAvgPool(h, "head.pool")
	b.Linear(x, 1000, "head.fc")
	return b.Build()
}

// normalCell is a stride-1 NASNet-A cell: both inputs are first squeezed
// to the cell's filter count by pointwise convolutions, then five blocks
// combine them; the block outputs are concatenated. 17 operators.
func normalCell(b *Builder, h, h2 graph.OpID, filters int, name string) graph.OpID {
	// When the previous cell reduced the grid, h2 has a larger spatial
	// size than h; NASNet inserts a factorized reduction, modeled here
	// as a strided pointwise convolution.
	hp := b.Conv1x1(h, filters, name+".adjust.h")
	h2p := adjust(b, h2, b.Shape(hp), filters, name+".adjust.h2")

	// Block 0: sep3x3(h') + h' identity.
	s0 := b.SepConv(hp, filters, 3, 1, 1, name+".b0.sep3")
	a0 := b.Add(s0, hp, name+".b0.add")
	// Block 1: sep3x3(h2') + sep5x5(h').
	s1a := b.SepConv(h2p, filters, 3, 1, 1, name+".b1.sep3")
	s1b := b.SepConv(hp, filters, 5, 1, 2, name+".b1.sep5")
	a1 := b.Add(s1a, s1b, name+".b1.add")
	// Block 2: avgpool3x3(h') + h2' identity.
	p2 := b.AvgPool(hp, 3, 1, 1, name+".b2.pool")
	a2 := b.Add(p2, h2p, name+".b2.add")
	// Block 3: sep5x5(h2') + h2' identity.
	s3 := b.SepConv(h2p, filters, 5, 1, 2, name+".b3.sep5")
	a3 := b.Add(s3, h2p, name+".b3.add")
	// Block 4: maxpool3x3(h') feeding the concat directly.
	p4 := b.MaxPool(hp, 3, 1, 1, name+".b4.pool")

	return b.Concat(name+".concat", a0, a1, a2, a3, p4)
}

// reductionCell is a stride-2 NASNet-A cell: three blocks of strided
// separable convolutions and poolings, concatenated. 16 operators.
func reductionCell(b *Builder, h, h2 graph.OpID, filters int, name string) graph.OpID {
	hp := b.Conv1x1(h, filters, name+".adjust.h")
	h2p := adjust(b, h2, b.Shape(hp), filters, name+".adjust.h2")

	// Block 0: sep5x5 s2 (h') + sep7x7 s2 (h2').
	s0a := b.SepConv(hp, filters, 5, 2, 2, name+".b0.sep5")
	s0b := b.SepConv(h2p, filters, 7, 2, 3, name+".b0.sep7")
	a0 := b.Add(s0a, s0b, name+".b0.add")
	// Block 1: maxpool3x3 s2 (h') + sep7x7 s2 (h2').
	p1 := b.MaxPool(hp, 3, 2, 1, name+".b1.pool")
	s1 := b.SepConv(h2p, filters, 7, 2, 3, name+".b1.sep7")
	a1 := b.Add(p1, s1, name+".b1.add")
	// Block 2: avgpool3x3 s2 (h') + sep5x5 s2 (h2').
	p2 := b.AvgPool(hp, 3, 2, 1, name+".b2.pool")
	s2 := b.SepConv(h2p, filters, 5, 2, 2, name+".b2.sep5")
	a2 := b.Add(p2, s2, name+".b2.add")

	return b.Concat(name+".concat", a0, a1, a2)
}

// adjust squeezes src to the given filter count and, when its spatial size
// disagrees with want (the previous cell was a reduction), downsamples
// with a strided pointwise convolution.
func adjust(b *Builder, src graph.OpID, want Tensor, filters int, name string) graph.OpID {
	s := b.Shape(src)
	if s.H == want.H && s.W == want.W {
		return b.Conv1x1(src, filters, name)
	}
	// Factorized reduction: strided pointwise convolution. NASNet uses
	// two parallel path convolutions; a single strided 1x1 preserves the
	// shape algebra with one operator. Ceiling division picks the stride
	// that lands on the target grid (e.g. 165 -> 83 needs stride 2).
	stride := (s.H + want.H - 1) / want.H
	if stride < 1 {
		stride = 1
	}
	out := b.Conv(src, filters, 1, 1, stride, stride, 0, 0, name)
	if got := b.Shape(out); got.H != want.H || got.W != want.W {
		b.failf(name, "adjust produced %v, want %dx%d spatial", got, want.H, want.W)
	}
	return out
}
