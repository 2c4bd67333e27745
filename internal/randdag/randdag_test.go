package randdag

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/shus-lab/hios/internal/graph"
)

func TestPaperDefaults(t *testing.T) {
	cfg := Paper()
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumOps() != 200 {
		t.Fatalf("ops = %d, want 200", g.NumOps())
	}
	if g.NumEdges() != 400 {
		t.Fatalf("edges = %d, want 400", g.NumEdges())
	}
	if layers := g.Layers(); len(layers) != 14 {
		t.Fatalf("layers = %d, want 14", len(layers))
	}
}

func TestDeterministic(t *testing.T) {
	a := MustGenerate(Paper())
	b := MustGenerate(Paper())
	if a.NumOps() != b.NumOps() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must give the same shape")
	}
	for i := range a.Ops() {
		if a.Op(graph.OpID(i)).Time != b.Op(graph.OpID(i)).Time {
			t.Fatal("same seed must give the same op times")
		}
	}
	for i, e := range a.Edges() {
		if b.Edges()[i] != e {
			t.Fatal("same seed must give the same edges")
		}
	}
	cfg := Paper()
	cfg.Seed = 2
	c := MustGenerate(cfg)
	same := true
	for i := range a.Ops() {
		if a.Op(graph.OpID(i)).Time != c.Op(graph.OpID(i)).Time {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different op times")
	}
}

func TestTimeBoundsAndComm(t *testing.T) {
	cfg := Paper()
	cfg.Seed = 5
	g := MustGenerate(cfg)
	for _, op := range g.Ops() {
		if op.Time < cfg.MinTime || op.Time > cfg.MaxTime {
			t.Fatalf("op time %g outside [%g, %g]", op.Time, cfg.MinTime, cfg.MaxTime)
		}
		if op.Util <= 0 || op.Util > 1 {
			t.Fatalf("op util %g outside (0, 1]", op.Util)
		}
	}
	for _, e := range g.Edges() {
		want := cfg.CommRatio * g.Op(e.From).Time
		if want < cfg.CommFloor {
			want = cfg.CommFloor
		}
		if diff := e.Time - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("edge %d->%d transfer %g, want %g", e.From, e.To, e.Time, want)
		}
	}
}

func TestEveryNonSourceLayerConnected(t *testing.T) {
	g := MustGenerate(Paper())
	layers := g.Layers()
	// Layer assignment by the generator guarantees at least one
	// predecessor for every op beyond the first generated layer, so no
	// operator can sit deeper than its generated layer and layer 0 ops
	// are exactly the dependency-free ones.
	for _, v := range layers[0] {
		if g.InDegree(v) != 0 {
			t.Fatalf("layer-0 op %d has predecessors", v)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Ops: 0, Layers: 1},
		{Ops: 5, Layers: 0},
		{Ops: 5, Layers: 9},
		{Ops: 5, Layers: 2, MinTime: 3, MaxTime: 1},
		{Ops: 5, Layers: 2, MinTime: -1, MaxTime: 1},
		{Ops: 5, Layers: 2, MaxTime: 1, Deps: -1},
		{Ops: 5, Layers: 2, MaxTime: 1, CommRatio: -1},
		{Ops: 5, Layers: 2, MaxTime: 1, CommRatio: math.NaN()},
		{Ops: 5, Layers: 2, MaxTime: 1, CommRatio: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}

func TestSingleLayer(t *testing.T) {
	cfg := Paper()
	cfg.Ops, cfg.Layers, cfg.Deps = 10, 1, 5
	g := MustGenerate(cfg)
	if g.NumEdges() != 0 {
		t.Fatalf("single-layer graph must have no dependencies, got %d", g.NumEdges())
	}
}

func TestGenerateProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := Paper()
		cfg.Seed = seed
		mod := func(k int64) int {
			v := int(seed % k)
			if v < 0 {
				v += int(k)
			}
			return v
		}
		cfg.Ops = 20 + mod(7)*10
		cfg.Layers = 4 + mod(5)
		cfg.Deps = 2 * cfg.Ops
		g, err := Generate(cfg)
		if err != nil {
			return false
		}
		if g.NumOps() != cfg.Ops {
			return false
		}
		if _, err := g.TopoOrder(); err != nil {
			return false
		}
		// No duplicate edges.
		seen := map[[2]graph.OpID]bool{}
		for _, e := range g.Edges() {
			k := [2]graph.OpID{e.From, e.To}
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacentOnlyEdges(t *testing.T) {
	cfg := Paper()
	cfg.AdjacentOnly = true
	cfg.Seed = 9
	g := MustGenerate(cfg)
	if g.NumEdges() != cfg.Deps {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), cfg.Deps)
	}
	// Every dependency must connect consecutive generated layers. The
	// generator assigns contiguous ID ranges per layer, so recover the
	// layer of each op from the structural guarantee: use Layers().
	layers := g.Layers()
	level := make(map[graph.OpID]int)
	for l, ops := range layers {
		for _, v := range ops {
			level[v] = l
		}
	}
	for _, e := range g.Edges() {
		// Topological levels can compress (an op's level is its
		// longest path depth), so assert the generated constraint
		// loosely: no edge may span more than the layer count, and
		// levels must increase.
		if level[e.To] <= level[e.From] {
			t.Fatalf("edge %d->%d does not increase depth", e.From, e.To)
		}
	}
}
