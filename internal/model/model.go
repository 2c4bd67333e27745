// Package model builds the computation graphs of real convolutional neural
// networks — the paper's two benchmarks, Inception-v3 and NASNet-A — from
// scratch, with per-operator tensor shapes, FLOP counts and memory traffic.
//
// Each operator is priced against a gpu.Device (solo latency and solo
// utilization) and each dependency against a gpu.Link (transfer time of the
// producer's output tensor), so a built Net carries everything the HIOS
// schedulers need in its graph weights. Batch size is fixed at one,
// matching the paper's real-time inference setting.
package model

import (
	"fmt"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/costcache"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/units"
)

// Tensor is the shape of one operator output (batch size 1), stored CHW.
type Tensor struct {
	C, H, W int
}

// Elems returns the number of elements.
func (t Tensor) Elems() int64 { return int64(t.C) * int64(t.H) * int64(t.W) }

// Bytes returns the fp32 size in bytes.
func (t Tensor) Bytes() int64 { return 4 * t.Elems() }

// String renders CxHxW.
func (t Tensor) String() string { return fmt.Sprintf("%dx%dx%d", t.C, t.H, t.W) }

// Net is a built network: a finalized weighted graph plus per-operator
// output shapes and the kernel characterizations the weights were priced
// from.
type Net struct {
	// Name identifies the network and input size, e.g.
	// "inception-v3-299".
	Name string
	// G is the weighted computation graph.
	G *graph.Graph
	// Shapes holds each operator's output tensor, indexed by OpID.
	Shapes []Tensor
	// Kernels holds each operator's kernel shape, indexed by OpID.
	Kernels []gpu.Kernel
	// Dev and Link are the platform the weights were priced on.
	Dev  gpu.Device
	Link gpu.Link
}

// Builder incrementally constructs a Net. All Add* methods panic on
// malformed shapes (builders encode static architectures; a shape error is
// a programming bug, not an input error), and Build finalizes the graph.
type Builder struct {
	name    string
	dev     gpu.Device
	link    gpu.Link
	g       *graph.Graph
	shapes  []Tensor
	kernels []gpu.Kernel
}

// NewBuilder returns a Builder pricing operators on dev and transfers on
// link.
func NewBuilder(name string, dev gpu.Device, link gpu.Link) *Builder {
	return &Builder{name: name, dev: dev, link: link, g: graph.New(128, 192)}
}

// Shape returns the output tensor of an already-added operator.
func (b *Builder) Shape(id graph.OpID) Tensor { return b.shapes[id] }

// addOp prices the kernel on the builder's device — through the
// process-wide shape cache, so the repeated cells of NASNet (and
// re-builds of the same benchmark at other sweep points) derive the
// roofline once per distinct shape — and appends the op. The cached
// values are bit-identical to calling the device model directly.
func (b *Builder) addOp(name, kind string, out Tensor, k gpu.Kernel, srcs ...graph.OpID) graph.OpID {
	if out.C <= 0 || out.H <= 0 || out.W <= 0 {
		panic(fmt.Sprintf("model: %s %q produces non-positive shape %v", kind, name, out))
	}
	t, util := costcache.Shared().KernelTime(b.dev, k)
	id := b.g.AddOp(graph.Op{
		Name:  name,
		Kind:  kind,
		Time:  float64(t),
		Util:  util,
		Bytes: out.Bytes(),
	})
	b.shapes = append(b.shapes, out)
	b.kernels = append(b.kernels, k)
	for _, s := range srcs {
		b.g.AddEdge(s, id, float64(costcache.Shared().TransferTime(b.link, units.Bytes(b.shapes[s].Bytes()))))
	}
	return id
}

// Input adds the network input placeholder. It carries no real compute;
// its cost is a single launch overhead (the H2D copy is outside the
// inference window in the paper's measurement, as data is resident).
func (b *Builder) Input(c, h, w int) graph.OpID {
	out := Tensor{C: c, H: h, W: w}
	return b.addOp("input", "input", out, gpu.Kernel{Threads: 1})
}

// Conv adds a 2-D convolution (+ folded bias/activation, as cuDNN fuses
// them) with the given output channels, kernel, stride and padding.
func (b *Builder) Conv(src graph.OpID, outC, kH, kW, sH, sW, pH, pW int, name string) graph.OpID {
	in := b.shapes[src]
	out := Tensor{
		C: outC,
		H: convDim(in.H, kH, sH, pH),
		W: convDim(in.W, kW, sW, pW),
	}
	flops := 2 * float64(kH*kW*in.C) * float64(out.Elems())
	weights := 4 * float64(kH*kW*in.C*outC)
	k := gpu.Kernel{
		FLOPs:   units.FLOPs(flops),
		Bytes:   units.Bytes(float64(in.Bytes()) + weights + float64(out.Bytes())),
		Threads: float64(out.Elems()),
	}
	return b.addOp(name, "conv", out, k, src)
}

// Conv1x1 is a pointwise convolution.
func (b *Builder) Conv1x1(src graph.OpID, outC int, name string) graph.OpID {
	return b.Conv(src, outC, 1, 1, 1, 1, 0, 0, name)
}

// SepConv adds a depthwise-separable convolution as its two constituent
// kernels (depthwise kxk then pointwise 1x1), returning the pointwise op.
// NASNet's cells are built from these.
func (b *Builder) SepConv(src graph.OpID, outC, k, s, p int, name string) graph.OpID {
	in := b.shapes[src]
	dwOut := Tensor{C: in.C, H: convDim(in.H, k, s, p), W: convDim(in.W, k, s, p)}
	dwFlops := 2 * float64(k*k) * float64(dwOut.Elems())
	dw := b.addOp(name+".dw", "conv-dw", dwOut, gpu.Kernel{
		FLOPs:   units.FLOPs(dwFlops),
		Bytes:   units.Bytes(float64(in.Bytes()) + 4*float64(k*k*in.C) + float64(dwOut.Bytes())),
		Threads: float64(dwOut.Elems()),
	}, src)
	return b.Conv1x1(dw, outC, name+".pw")
}

// MaxPool adds a max pooling operator.
func (b *Builder) MaxPool(src graph.OpID, k, s, p int, name string) graph.OpID {
	return b.pool(src, k, s, p, "maxpool", name)
}

// AvgPool adds an average pooling operator.
func (b *Builder) AvgPool(src graph.OpID, k, s, p int, name string) graph.OpID {
	return b.pool(src, k, s, p, "avgpool", name)
}

func (b *Builder) pool(src graph.OpID, k, s, p int, kind, name string) graph.OpID {
	in := b.shapes[src]
	out := Tensor{C: in.C, H: convDim(in.H, k, s, p), W: convDim(in.W, k, s, p)}
	kern := gpu.Kernel{
		FLOPs:   units.FLOPs(float64(k*k) * float64(out.Elems())),
		Bytes:   units.Bytes(float64(in.Bytes()) + float64(out.Bytes())),
		Threads: float64(out.Elems()),
	}
	return b.addOp(name, kind, out, kern, src)
}

// GlobalAvgPool reduces each channel to a single value.
func (b *Builder) GlobalAvgPool(src graph.OpID, name string) graph.OpID {
	in := b.shapes[src]
	out := Tensor{C: in.C, H: 1, W: 1}
	k := gpu.Kernel{
		FLOPs:   units.FLOPs(in.Elems()),
		Bytes:   units.Bytes(float64(in.Bytes()) + float64(out.Bytes())),
		Threads: float64(in.C),
	}
	return b.addOp(name, "globalpool", out, k, src)
}

// Concat joins sources along the channel dimension; spatial dims must
// agree.
func (b *Builder) Concat(name string, srcs ...graph.OpID) graph.OpID {
	if len(srcs) == 0 {
		panic("model: Concat needs at least one source")
	}
	first := b.shapes[srcs[0]]
	out := Tensor{C: 0, H: first.H, W: first.W}
	var bytes float64
	for _, s := range srcs {
		sh := b.shapes[s]
		if sh.H != first.H || sh.W != first.W {
			panic(fmt.Sprintf("model: Concat %q spatial mismatch: %v vs %v", name, first, sh))
		}
		out.C += sh.C
		bytes += float64(sh.Bytes())
	}
	k := gpu.Kernel{
		Bytes:   units.Bytes(2 * bytes), // read every input, write the output
		Threads: float64(out.Elems()),
	}
	return b.addOp(name, "concat", out, k, srcs...)
}

// Add is an elementwise sum of two equally shaped tensors.
func (b *Builder) Add(x, y graph.OpID, name string) graph.OpID {
	sx, sy := b.shapes[x], b.shapes[y]
	if sx != sy {
		panic(fmt.Sprintf("model: Add %q shape mismatch: %v vs %v", name, sx, sy))
	}
	k := gpu.Kernel{
		FLOPs:   units.FLOPs(sx.Elems()),
		Bytes:   units.Bytes(3 * float64(sx.Bytes())),
		Threads: float64(sx.Elems()),
	}
	return b.addOp(name, "add", sx, k, x, y)
}

// Linear adds a fully connected layer over a flattened input.
func (b *Builder) Linear(src graph.OpID, outFeatures int, name string) graph.OpID {
	in := b.shapes[src]
	inF := in.Elems()
	out := Tensor{C: outFeatures, H: 1, W: 1}
	k := gpu.Kernel{
		FLOPs:   units.FLOPs(2 * float64(inF) * float64(outFeatures)),
		Bytes:   units.Bytes(float64(in.Bytes()) + 4*float64(inF)*float64(outFeatures) + float64(out.Bytes())),
		Threads: float64(outFeatures),
	}
	return b.addOp(name, "linear", out, k, src)
}

// Build finalizes and returns the Net.
func (b *Builder) Build() (*Net, error) {
	if err := b.g.Finalize(); err != nil {
		return nil, err
	}
	return &Net{Name: b.name, G: b.g, Shapes: b.shapes, Kernels: b.kernels, Dev: b.dev, Link: b.link}, nil
}

// CachedModel returns the cost model of the net's cached pricing. The
// builder prices every operator and transfer through the process-wide
// shape cache and bakes exactly those values into the graph, which has
// no setters after Finalize, so the model is cost.FromGraph over the
// baked weights: a cost.ItemModel, which the IOS dynamic program prunes
// and memoizes, with no cache lookup per probe.
func (n *Net) CachedModel(ct cost.Contention) *cost.GraphModel {
	return cost.FromGraph(n.G, ct)
}

// MustBuild is Build that panics on error; architecture builders are
// statically valid.
func (b *Builder) MustBuild() *Net {
	n, err := b.Build()
	if err != nil {
		panic(err)
	}
	return n
}

// convDim computes an output spatial dimension, panicking when the
// configuration is degenerate.
func convDim(in, k, s, p int) int {
	if s <= 0 {
		panic("model: stride must be positive")
	}
	out := (in+2*p-k)/s + 1
	if out <= 0 {
		panic(fmt.Sprintf("model: kernel %d stride %d pad %d does not fit input %d", k, s, p, in))
	}
	return out
}

// TotalFLOPs is a diagnostic: approximate total floating-point work of the
// network, reconstructed from operator times and the device model. Used by
// examples to report model scale.
func (n *Net) TotalFLOPs(dev gpu.Device) units.FLOPs {
	var t float64
	for _, op := range n.G.Ops() {
		t += op.Time
	}
	// Reconstruct the datasheet GFLOP/s figure and keep the exact
	// operation order of the pre-units formula (t/1e3 · GFLOPS · 1e9 ·
	// efficiency): the division by 1e9 is exact for datasheet magnitudes,
	// so the result is bit-identical.
	gflops := float64(dev.PeakFLOPs) / 1e9
	return units.FLOPs(t / 1e3 * gflops * 1e9 * dev.Efficiency)
}
