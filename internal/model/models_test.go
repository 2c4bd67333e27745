package model

import (
	"testing"

	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
)

func checkNet(t *testing.T, n *Net, wantClasses int) {
	t.Helper()
	if _, err := n.G.TopoOrder(); err != nil {
		t.Fatalf("%s: %v", n.Name, err)
	}
	if got := len(n.G.Sources()); got != 1 {
		t.Fatalf("%s: sources = %d, want 1", n.Name, got)
	}
	for _, op := range n.G.Ops() {
		if op.Time <= 0 || op.Util <= 0 || op.Util > 1 {
			t.Fatalf("%s: op %s has bad weights (t=%g u=%g)", n.Name, op.Name, op.Time, op.Util)
		}
	}
	if wantClasses > 0 {
		sink := n.G.Sinks()[0]
		if n.Shapes[sink].C != wantClasses {
			t.Fatalf("%s: classifier shape = %v", n.Name, n.Shapes[sink])
		}
	}
	if len(n.Shapes) != n.G.NumOps() {
		t.Fatalf("%s: %d shapes for %d ops", n.Name, len(n.Shapes), n.G.NumOps())
	}
}

func TestSqueezeNetStructure(t *testing.T) {
	n := Must(SqueezeNet(gpu.A40(), gpu.NVLinkBridge(), 224))
	checkNet(t, n, 0)
	// input + stem conv + stem pool + 8 fire modules x 4 ops + 2 mid
	// pools + conv10 + global pool = 39.
	if got := n.G.NumOps(); got != 39 {
		t.Fatalf("ops = %d, want 39", got)
	}
	// The final pooled tensor is 1000-way.
	sink := n.G.Sinks()[0]
	if n.Shapes[sink].C != 1000 {
		t.Fatalf("head shape = %v", n.Shapes[sink])
	}
}

func TestResNet50Structure(t *testing.T) {
	n := Must(ResNet50(gpu.A40(), gpu.NVLinkBridge(), 224))
	checkNet(t, n, 1000)
	// 16 blocks x (3 conv + add) + 4 projection shortcuts + stem
	// (conv + pool) + input + head (pool + fc) = 73.
	if got := n.G.NumOps(); got != 73 {
		t.Fatalf("ops = %d, want 73", got)
	}
	// Nearly a chain: the maximum layer width must be tiny.
	width := 0
	for _, l := range n.G.Layers() {
		if len(l) > width {
			width = len(l)
		}
	}
	if width > 3 {
		t.Fatalf("ResNet width = %d, expected a near-chain", width)
	}
	// Spatial algebra: 224 -> 112 -> 56 -> 56/28/14/7.
	sinkIn := n.G.Sinks()[0]
	_ = sinkIn
}

func TestRandWireStructure(t *testing.T) {
	cfg := DefaultRandWire()
	n, err := RandWire(gpu.A40(), gpu.NVLinkBridge(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkNet(t, n, 1000)
	// 3 stages x 16 nodes x >=3 ops (sep = 2 + aggregation adds) plus
	// stem and head: at least 150.
	if got := n.G.NumOps(); got < 150 {
		t.Fatalf("ops = %d, want >= 150", got)
	}
}

func TestRandWireDeterministic(t *testing.T) {
	cfg := DefaultRandWire()
	a, err := RandWire(gpu.A40(), gpu.NVLinkBridge(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandWire(gpu.A40(), gpu.NVLinkBridge(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.G.NumOps() != b.G.NumOps() || a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("same seed produced different wiring")
	}
	cfg.Seed = 2
	c, err := RandWire(gpu.A40(), gpu.NVLinkBridge(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.G.NumEdges() == a.G.NumEdges() && c.G.NumOps() == a.G.NumOps() {
		// Same counts are possible but full equality of names is not.
		same := true
		for i := range c.G.Ops() {
			if c.G.Op(graph.OpID(i)).Time != a.G.Op(graph.OpID(i)).Time {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical networks")
		}
	}
}

func TestRandWireConfigValidation(t *testing.T) {
	dev, link := gpu.A40(), gpu.NVLinkBridge()
	bad := []RandWireConfig{
		{InputSize: 0, Channels: 78, NodesPerStage: 8, K: 4},
		{InputSize: 224, Channels: 0, NodesPerStage: 8, K: 4},
		{InputSize: 224, Channels: 78, NodesPerStage: 1, K: 4},
		{InputSize: 224, Channels: 78, NodesPerStage: 8, K: 3},
		{InputSize: 224, Channels: 78, NodesPerStage: 8, K: 8},
		{InputSize: 224, Channels: 78, NodesPerStage: 8, K: 4, P: 1.5},
	}
	for i, cfg := range bad {
		if _, err := RandWire(dev, link, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRandWireWiderThanResNet(t *testing.T) {
	rw, err := RandWire(gpu.A40(), gpu.NVLinkBridge(), DefaultRandWire())
	if err != nil {
		t.Fatal(err)
	}
	rn := Must(ResNet50(gpu.A40(), gpu.NVLinkBridge(), 224))
	width := func(n *Net) int {
		w := 0
		for _, l := range n.G.Layers() {
			if len(l) > w {
				w = len(l)
			}
		}
		return w
	}
	if width(rw) <= width(rn) {
		t.Fatalf("RandWire width %d should exceed ResNet width %d", width(rw), width(rn))
	}
}
