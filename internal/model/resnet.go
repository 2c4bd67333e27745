package model

import (
	"fmt"

	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
)

// ResNet50 builds ResNet-50 (He et al., CVPR 2016) at the given square
// input size (canonical: 224). ResNet's bottleneck blocks have exactly
// two branches — the residual path and the identity/projection shortcut —
// so the graph is nearly a chain: it is the degenerate case for
// inter-operator parallelism and serves as the control benchmark where
// HIOS-LP should gain little over sequential execution (every scheduler
// is bound by the same long dependency chain).
func ResNet50(dev gpu.Device, link gpu.Link, inputSize int) (*Net, error) {
	b := NewBuilder(fmt.Sprintf("resnet50-%d", inputSize), dev, link)

	in := b.Input(3, inputSize, inputSize)
	x := b.Conv(in, 64, 7, 7, 2, 2, 3, 3, "stem.conv")
	x = b.MaxPool(x, 3, 2, 1, "stem.pool")

	// (blocks, mid channels, out channels, first stride) per stage.
	stages := []struct {
		blocks, mid, out, stride int
	}{
		{3, 64, 256, 1},
		{4, 128, 512, 2},
		{6, 256, 1024, 2},
		{3, 512, 2048, 2},
	}
	for si, st := range stages {
		for bi := 0; bi < st.blocks; bi++ {
			stride := 1
			if bi == 0 {
				stride = st.stride
			}
			x = bottleneck(b, x, st.mid, st.out, stride, fmt.Sprintf("layer%d.%d", si+1, bi))
		}
	}
	x = b.GlobalAvgPool(x, "head.pool")
	b.Linear(x, 1000, "head.fc")
	return b.Build()
}

// bottleneck is one ResNet bottleneck block: 1x1 reduce, 3x3, 1x1 expand,
// plus an identity or 1x1-projection shortcut, joined by an elementwise
// add.
func bottleneck(b *Builder, x graph.OpID, mid, out, stride int, name string) graph.OpID {
	r := b.Conv1x1(x, mid, name+".reduce")
	if stride > 1 {
		// Strided variant of the middle conv handles downsampling.
		r = b.Conv(r, mid, 3, 3, stride, stride, 1, 1, name+".conv3x3")
	} else {
		r = b.Conv(r, mid, 3, 3, 1, 1, 1, 1, name+".conv3x3")
	}
	r = b.Conv1x1(r, out, name+".expand")

	short := x
	if b.Shape(x).C != out || stride > 1 {
		short = b.Conv(x, out, 1, 1, stride, stride, 0, 0, name+".shortcut")
	}
	return b.Add(r, short, name+".add")
}
