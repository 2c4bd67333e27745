package model

import (
	"fmt"

	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
)

// SqueezeNet builds SqueezeNet v1.1 (Iandola et al., 2016) at the given
// square input size. SqueezeNet is part of the IOS paper's benchmark set
// (alongside Inception-v3, RandWire and NASNet), and its fire modules —
// a 1x1 squeeze followed by parallel 1x1 and 3x3 expands — give a shallow
// but branch-regular graph that the intra-GPU window pass handles almost
// entirely on its own, making it a useful contrast to the NASNet extreme.
//
// Canonical input size is 224.
func SqueezeNet(dev gpu.Device, link gpu.Link, inputSize int) (*Net, error) {
	b := NewBuilder(fmt.Sprintf("squeezenet-%d", inputSize), dev, link)

	in := b.Input(3, inputSize, inputSize)
	x := b.Conv(in, 64, 3, 3, 2, 2, 0, 0, "stem.conv")
	x = b.MaxPool(x, 3, 2, 0, "stem.pool")

	x = fire(b, x, 16, 64, "fire2")
	x = fire(b, x, 16, 64, "fire3")
	x = b.MaxPool(x, 3, 2, 0, "pool3")
	x = fire(b, x, 32, 128, "fire4")
	x = fire(b, x, 32, 128, "fire5")
	x = b.MaxPool(x, 3, 2, 0, "pool5")
	x = fire(b, x, 48, 192, "fire6")
	x = fire(b, x, 48, 192, "fire7")
	x = fire(b, x, 64, 256, "fire8")
	x = fire(b, x, 64, 256, "fire9")

	x = b.Conv1x1(x, 1000, "head.conv10")
	x = b.GlobalAvgPool(x, "head.pool")
	_ = x
	return b.Build()
}

// fire is one SqueezeNet module: squeeze to squeezeC channels, expand in
// parallel through 1x1 and 3x3 convolutions, concatenate.
func fire(b *Builder, x graph.OpID, squeezeC, expandC int, name string) graph.OpID {
	s := b.Conv1x1(x, squeezeC, name+".squeeze")
	e1 := b.Conv1x1(s, expandC, name+".expand1x1")
	e3 := b.Conv(s, expandC, 3, 3, 1, 1, 1, 1, name+".expand3x3")
	return b.Concat(name+".concat", e1, e3)
}
