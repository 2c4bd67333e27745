package model

import (
	"testing"

	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/units"
)

// zooNets builds the five zoo networks on one platform at their default
// input sizes.
func zooNets(t *testing.T, p gpu.Platform) []*Net {
	t.Helper()
	rw, err := RandWire(p.Dev, p.Link, DefaultRandWire())
	if err != nil {
		t.Fatal(err)
	}
	return []*Net{
		Must(InceptionV3(p.Dev, p.Link, 299)),
		Must(NASNet(p.Dev, p.Link, 331)),
		Must(SqueezeNet(p.Dev, p.Link, 224)),
		Must(ResNet50(p.Dev, p.Link, 224)),
		rw,
	}
}

// TestBakedWeightsMatchUncachedPricing pins what makes Net.CachedModel a
// plain cost.FromGraph: the weights the builder bakes through the shared
// shape cache are, bit for bit, the uncached device and link models of
// the net's own kernels and output shapes — for every zoo network on
// every fleet platform.
func TestBakedWeightsMatchUncachedPricing(t *testing.T) {
	for _, p := range []gpu.Platform{gpu.DualA40(), gpu.DualA5500(), gpu.DualV100S()} {
		for _, net := range zooNets(t, p) {
			if len(net.Kernels) != net.G.NumOps() || len(net.Shapes) != net.G.NumOps() {
				t.Fatalf("%s on %s: %d kernels / %d shapes for %d ops",
					net.Name, p.Name, len(net.Kernels), len(net.Shapes), net.G.NumOps())
			}
			for v, op := range net.G.Ops() {
				k := net.Kernels[v]
				if want := float64(p.Dev.Time(k)); op.Time != want { //lint:floatexact
					t.Fatalf("%s on %s: op %d time %v, device %v", net.Name, p.Name, v, op.Time, want)
				}
				if want := p.Dev.Utilization(k); op.Util != want { //lint:floatexact
					t.Fatalf("%s on %s: op %d util %v, device %v", net.Name, p.Name, v, op.Util, want)
				}
			}
			edges := net.G.Edges()
			if len(edges) == 0 {
				t.Fatalf("%s on %s: no edges", net.Name, p.Name)
			}
			for _, e := range edges {
				want := float64(p.Link.TransferTime(units.Bytes(net.Shapes[e.From].Bytes())))
				if e.Time != want { //lint:floatexact
					t.Fatalf("%s on %s: edge %d->%d transfer %v, link %v",
						net.Name, p.Name, e.From, e.To, e.Time, want)
				}
			}
		}
	}
}

// TestBuilderCacheStability: building the same net twice yields
// byte-identical graph weights — the second build is served almost
// entirely from the shared cache, and cached values must not drift.
func TestBuilderCacheStability(t *testing.T) {
	a := Must(InceptionV3(gpu.A40(), gpu.NVLinkBridge(), 299))
	b := Must(InceptionV3(gpu.A40(), gpu.NVLinkBridge(), 299))
	if a.G.NumOps() != b.G.NumOps() {
		t.Fatalf("op counts differ: %d vs %d", a.G.NumOps(), b.G.NumOps())
	}
	for v := range a.G.Ops() {
		oa, ob := a.G.Op(graph.OpID(v)), b.G.Op(graph.OpID(v))
		if oa.Time != ob.Time || oa.Util != ob.Util { //lint:floatexact
			t.Fatalf("op %d weights drifted across rebuilds: (%v,%v) vs (%v,%v)",
				v, oa.Time, oa.Util, ob.Time, ob.Util)
		}
	}
	ea, eb := a.G.Edges(), b.G.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Time != eb[i].Time { //lint:floatexact
			t.Fatalf("edge %d transfer drifted: %v vs %v", i, ea[i].Time, eb[i].Time)
		}
	}
}
