package memory

import (
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/model"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/seq"
)

func chain(t *testing.T) (*graph.Graph, cost.Model) {
	t.Helper()
	g := graph.New(3, 2)
	a := g.AddOp(graph.Op{Name: "a", Time: 1, Bytes: 100})
	b := g.AddOp(graph.Op{Name: "b", Time: 1, Bytes: 200})
	c := g.AddOp(graph.Op{Name: "c", Time: 1, Bytes: 50})
	g.AddEdge(a, b, 0.5)
	g.AddEdge(b, c, 0.5)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g, cost.FromGraph(g, cost.DefaultContention())
}

func TestChainSingleGPU(t *testing.T) {
	g, m := chain(t)
	s := sched.Sequential(g.ByPriority())
	rep, err := Analyze(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	// Buffers are allocated at producer start and freed at the last
	// consumer's finish:
	//   a (100): [0, 2] (b, its consumer, finishes at 2)
	//   b (200): [1, 3]
	//   c  (50): [2, 3] (network output lives to the makespan)
	// Peak = a + b = 300 during [1, 2).
	if rep.PeakBytes[0] != 300 {
		t.Fatalf("peak = %d, want 300", rep.PeakBytes[0])
	}
	if rep.PeakAt[0] != 1 {
		t.Fatalf("peak at %g, want 1", rep.PeakAt[0])
	}
}

func TestCrossGPUCopies(t *testing.T) {
	g, m := chain(t)
	s := sched.New(2)
	s.Append(0, 0)
	s.Append(1, 1)
	s.Append(0, 2)
	rep, err := Analyze(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	// GPU0 holds a until its transfer completes, then b's copy (arrives
	// for c) plus the output c. GPU1 holds a's copy plus b.
	if rep.PeakBytes[0] <= 0 || rep.PeakBytes[1] <= 0 {
		t.Fatalf("peaks = %v, both GPUs hold tensors", rep.PeakBytes)
	}
	// GPU1's peak: a's copy (100) + b (200) live simultaneously while b
	// waits to be shipped: 300.
	if rep.PeakBytes[1] != 300 {
		t.Fatalf("GPU1 peak = %d, want 300", rep.PeakBytes[1])
	}
	if rep.MaxPeak() != 300 {
		t.Fatalf("MaxPeak = %d", rep.MaxPeak())
	}
	if !rep.Fits(300) || rep.Fits(299) {
		t.Fatal("Fits threshold wrong")
	}
}

func TestZeroByteGraphs(t *testing.T) {
	g := graph.New(2, 1)
	a := g.AddOp(graph.Op{Time: 1})
	b := g.AddOp(graph.Op{Time: 1})
	g.AddEdge(a, b, 0.1)
	g.MustFinalize()
	m := cost.FromGraph(g, cost.DefaultContention())
	s := sched.Sequential(g.ByPriority())
	rep, err := Analyze(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxPeak() != 0 {
		t.Fatalf("byte-less graph peak = %d", rep.MaxPeak())
	}
}

func TestRejectsInvalidSchedule(t *testing.T) {
	g, m := chain(t)
	s := sched.New(1)
	s.Append(0, 0)
	if _, err := Analyze(g, m, s); err == nil {
		t.Fatal("accepted an incomplete schedule")
	}
}

func TestInceptionFitsA40(t *testing.T) {
	plat := gpu.DualA40()
	net := model.Must(model.InceptionV3(plat.Dev, plat.Link, 1024))
	m := cost.FromGraph(net.G, cost.DefaultContention())
	res, err := lp.Schedule(net.G, m, lp.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(net.G, m, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxPeak() <= 0 {
		t.Fatal("Inception tensors should occupy memory")
	}
	// 48 GB per A40; activations at 1024px are far below that.
	if !rep.Fits(48 << 30) {
		t.Fatalf("peak %d bytes should fit a 48 GB A40", rep.MaxPeak())
	}
}

func TestMultiGPUSplitsFootprint(t *testing.T) {
	// Splitting a model across two GPUs should not increase the total
	// peak by more than the duplicated boundary tensors; sanity-check
	// that the per-GPU peak under LP is below the sequential peak plus
	// a margin.
	plat := gpu.DualA40()
	net := model.Must(model.InceptionV3(plat.Dev, plat.Link, 512))
	m := cost.FromGraph(net.G, cost.DefaultContention())

	sq, err := seq.Schedule(net.G, m)
	if err != nil {
		t.Fatal(err)
	}
	seqRep, err := Analyze(net.G, m, sq.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	lpRes, err := lp.Schedule(net.G, m, lp.Options{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	lpRep, err := Analyze(net.G, m, lpRes.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if lpRep.MaxPeak() > 2*seqRep.MaxPeak() {
		t.Fatalf("multi-GPU peak %d implausibly above sequential %d", lpRep.MaxPeak(), seqRep.MaxPeak())
	}
}
