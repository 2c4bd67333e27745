package model

import (
	"fmt"

	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
)

// InceptionV3 builds Google's Inception-v3 (Szegedy et al., CVPR 2016) at
// the given square input size (the canonical size is 299; the paper scales
// it up to 2^K to grow operator workloads). The structure follows the
// torchvision reference: a convolutional stem, three InceptionA modules,
// a grid-reduction module, four InceptionC modules, a second reduction,
// two InceptionE modules, then global pooling and the classifier.
//
// The paper reports 119 operators and 153 dependencies for its extracted
// graph; this builder produces 121 operators (it keeps an explicit input
// placeholder and the final classifier as separate operators) and an edge
// count within a few of the paper's.
func InceptionV3(dev gpu.Device, link gpu.Link, inputSize int) (*Net, error) {
	b := NewBuilder(fmt.Sprintf("inception-v3-%d", inputSize), dev, link)

	in := b.Input(3, inputSize, inputSize)

	// Stem.
	x := b.Conv(in, 32, 3, 3, 2, 2, 0, 0, "stem.conv1")
	x = b.Conv(x, 32, 3, 3, 1, 1, 0, 0, "stem.conv2")
	x = b.Conv(x, 64, 3, 3, 1, 1, 1, 1, "stem.conv3")
	x = b.MaxPool(x, 3, 2, 0, "stem.pool1")
	x = b.Conv1x1(x, 80, "stem.conv4")
	x = b.Conv(x, 192, 3, 3, 1, 1, 0, 0, "stem.conv5")
	x = b.MaxPool(x, 3, 2, 0, "stem.pool2")

	// Three InceptionA modules (pool branch width 32, 64, 64).
	for i, poolC := range []int{32, 64, 64} {
		x = inceptionA(b, x, poolC, fmt.Sprintf("mixedA%d", i))
	}
	// Grid reduction 35x35 -> 17x17.
	x = inceptionB(b, x, "reduceB")
	// Four InceptionC modules (7x7 branch width 128, 160, 160, 192).
	for i, c7 := range []int{128, 160, 160, 192} {
		x = inceptionC(b, x, c7, fmt.Sprintf("mixedC%d", i))
	}
	// Grid reduction 17x17 -> 8x8.
	x = inceptionD(b, x, "reduceD")
	// Two InceptionE modules.
	for i := 0; i < 2; i++ {
		x = inceptionE(b, x, fmt.Sprintf("mixedE%d", i))
	}

	x = b.GlobalAvgPool(x, "head.pool")
	b.Linear(x, 1000, "head.fc")
	return b.Build()
}

// inceptionA is the 35x35 module: 1x1, 5x5, double-3x3 and pooling
// branches concatenated.
func inceptionA(b *Builder, x graph.OpID, poolC int, name string) graph.OpID {
	b1 := b.Conv1x1(x, 64, name+".b1.1x1")

	b2 := b.Conv1x1(x, 48, name+".b2.1x1")
	b2 = b.Conv(b2, 64, 5, 5, 1, 1, 2, 2, name+".b2.5x5")

	b3 := b.Conv1x1(x, 64, name+".b3.1x1")
	b3 = b.Conv(b3, 96, 3, 3, 1, 1, 1, 1, name+".b3.3x3a")
	b3 = b.Conv(b3, 96, 3, 3, 1, 1, 1, 1, name+".b3.3x3b")

	b4 := b.AvgPool(x, 3, 1, 1, name+".b4.pool")
	b4 = b.Conv1x1(b4, poolC, name+".b4.1x1")

	return b.Concat(name+".concat", b1, b2, b3, b4)
}

// inceptionB is the first grid-reduction module.
func inceptionB(b *Builder, x graph.OpID, name string) graph.OpID {
	b1 := b.Conv(x, 384, 3, 3, 2, 2, 0, 0, name+".b1.3x3")

	b2 := b.Conv1x1(x, 64, name+".b2.1x1")
	b2 = b.Conv(b2, 96, 3, 3, 1, 1, 1, 1, name+".b2.3x3a")
	b2 = b.Conv(b2, 96, 3, 3, 2, 2, 0, 0, name+".b2.3x3b")

	b3 := b.MaxPool(x, 3, 2, 0, name+".b3.pool")

	return b.Concat(name+".concat", b1, b2, b3)
}

// inceptionC is the 17x17 module with factorized 7x7 convolutions.
func inceptionC(b *Builder, x graph.OpID, c7 int, name string) graph.OpID {
	b1 := b.Conv1x1(x, 192, name+".b1.1x1")

	b2 := b.Conv1x1(x, c7, name+".b2.1x1")
	b2 = b.Conv(b2, c7, 1, 7, 1, 1, 0, 3, name+".b2.1x7")
	b2 = b.Conv(b2, 192, 7, 1, 1, 1, 3, 0, name+".b2.7x1")

	b3 := b.Conv1x1(x, c7, name+".b3.1x1")
	b3 = b.Conv(b3, c7, 7, 1, 1, 1, 3, 0, name+".b3.7x1a")
	b3 = b.Conv(b3, c7, 1, 7, 1, 1, 0, 3, name+".b3.1x7a")
	b3 = b.Conv(b3, c7, 7, 1, 1, 1, 3, 0, name+".b3.7x1b")
	b3 = b.Conv(b3, 192, 1, 7, 1, 1, 0, 3, name+".b3.1x7b")

	b4 := b.AvgPool(x, 3, 1, 1, name+".b4.pool")
	b4 = b.Conv1x1(b4, 192, name+".b4.1x1")

	return b.Concat(name+".concat", b1, b2, b3, b4)
}

// inceptionD is the second grid-reduction module.
func inceptionD(b *Builder, x graph.OpID, name string) graph.OpID {
	b1 := b.Conv1x1(x, 192, name+".b1.1x1")
	b1 = b.Conv(b1, 320, 3, 3, 2, 2, 0, 0, name+".b1.3x3")

	b2 := b.Conv1x1(x, 192, name+".b2.1x1")
	b2 = b.Conv(b2, 192, 1, 7, 1, 1, 0, 3, name+".b2.1x7")
	b2 = b.Conv(b2, 192, 7, 1, 1, 1, 3, 0, name+".b2.7x1")
	b2 = b.Conv(b2, 192, 3, 3, 2, 2, 0, 0, name+".b2.3x3")

	b3 := b.MaxPool(x, 3, 2, 0, name+".b3.pool")

	return b.Concat(name+".concat", b1, b2, b3)
}

// inceptionE is the 8x8 module with split 1x3/3x1 branches.
func inceptionE(b *Builder, x graph.OpID, name string) graph.OpID {
	b1 := b.Conv1x1(x, 320, name+".b1.1x1")

	b2 := b.Conv1x1(x, 384, name+".b2.1x1")
	b2a := b.Conv(b2, 384, 1, 3, 1, 1, 0, 1, name+".b2.1x3")
	b2b := b.Conv(b2, 384, 3, 1, 1, 1, 1, 0, name+".b2.3x1")

	b3 := b.Conv1x1(x, 448, name+".b3.1x1")
	b3 = b.Conv(b3, 384, 3, 3, 1, 1, 1, 1, name+".b3.3x3")
	b3a := b.Conv(b3, 384, 1, 3, 1, 1, 0, 1, name+".b3.1x3")
	b3b := b.Conv(b3, 384, 3, 1, 1, 1, 1, 0, name+".b3.3x1")

	b4 := b.AvgPool(x, 3, 1, 1, name+".b4.pool")
	b4 = b.Conv1x1(b4, 192, name+".b4.1x1")

	return b.Concat(name+".concat", b1, b2a, b2b, b3a, b3b, b4)
}
