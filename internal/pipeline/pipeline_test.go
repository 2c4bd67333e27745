package pipeline

import (
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/seq"
	"github.com/shus-lab/hios/internal/units"
)

func twoGPUChain(t *testing.T) (*graph.Graph, cost.Model, *sched.Schedule) {
	t.Helper()
	// a (2ms) -> b (2ms), split across GPUs with a 0.5ms transfer: a
	// classic two-stage pipeline.
	g := graph.New(2, 1)
	a := g.AddOp(graph.Op{Name: "a", Time: 2, Util: 1})
	b := g.AddOp(graph.Op{Name: "b", Time: 2, Util: 1})
	g.AddEdge(a, b, 0.5)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m := cost.FromGraph(g, cost.DefaultContention())
	s := sched.New(2)
	s.Append(0, a)
	s.Append(1, b)
	return g, m, s
}

func TestTwoStagePipeline(t *testing.T) {
	g, m, s := twoGPUChain(t)
	rep, err := Analyze(g, m, s, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Single-request latency: 2 + 0.5 + 2 = 4.5 ms. Steady state: each
	// GPU does 2 ms of work per request, so the period is 2 ms.
	if rep.LatencyMs != 4.5 {
		t.Fatalf("latency = %g, want 4.5", rep.LatencyMs)
	}
	if diff := rep.SteadyPeriodMs - 2; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("period = %g, want 2", rep.SteadyPeriodMs)
	}
	if diff := rep.ThroughputPerSec - 500; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("throughput = %g, want 500/s", rep.ThroughputPerSec)
	}
	// Completions must be ordered and settle to a fixed period.
	for r := 1; r < rep.Requests; r++ {
		if rep.Completions[r] <= rep.Completions[r-1] {
			t.Fatalf("completions not increasing: %v", rep.Completions)
		}
	}
}

func TestSingleGPUPeriodIsTotalWork(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 30, 5, 60, 2
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	sq, err := seq.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(g, m, sq.Schedule, 3)
	if err != nil {
		t.Fatal(err)
	}
	if diff := rep.SteadyPeriodMs - units.Millis(g.TotalOpTime()); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sequential period %g != total work %g", rep.SteadyPeriodMs, g.TotalOpTime())
	}
	if diff := rep.LatencyMs - units.Millis(g.TotalOpTime()); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sequential latency %g != total work %g", rep.LatencyMs, g.TotalOpTime())
	}
}

func TestMultiGPUThroughputBeatsSingle(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 50, 6, 90, 4
	g := randdag.MustGenerate(cfg)
	m := cost.FromGraph(g, cost.DefaultContention())

	sq, err := seq.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	seqRep, err := Analyze(g, m, sq.Schedule, 4)
	if err != nil {
		t.Fatal(err)
	}
	lpRes, err := lp.Schedule(g, m, lp.Options{GPUs: 3})
	if err != nil {
		t.Fatal(err)
	}
	lpRep, err := Analyze(g, m, lpRes.Schedule, 6)
	if err != nil {
		t.Fatal(err)
	}
	if lpRep.ThroughputPerSec <= seqRep.ThroughputPerSec {
		t.Fatalf("multi-GPU throughput %g should beat single-GPU %g",
			lpRep.ThroughputPerSec, seqRep.ThroughputPerSec)
	}
	// The steady period can never beat the bottleneck GPU's busy time.
	var maxBusy units.Millis
	for gi := range lpRes.Schedule.GPUs {
		var busy units.Millis
		for _, st := range lpRes.Schedule.GPUs[gi].Stages {
			busy += m.StageTime(st.Ops)
		}
		if busy > maxBusy {
			maxBusy = busy
		}
	}
	if lpRep.SteadyPeriodMs < maxBusy-1e-9 {
		t.Fatalf("period %g below the bottleneck busy time %g", lpRep.SteadyPeriodMs, maxBusy)
	}
}

func TestPipelineLatencyMatchesEvaluator(t *testing.T) {
	g, m, s := twoGPUChain(t)
	want, err := sched.Latency(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(g, m, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatencyMs != want {
		t.Fatalf("request-0 latency %g != evaluator %g", rep.LatencyMs, want)
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	g, m, s := twoGPUChain(t)
	if _, err := Analyze(g, m, s, 1); err == nil {
		t.Fatal("accepted K=1")
	}
	bad := sched.New(2)
	bad.Append(0, 0)
	if _, err := Analyze(g, m, bad, 3); err == nil {
		t.Fatal("accepted an incomplete schedule")
	}
}

func TestUnrollShape(t *testing.T) {
	g, _, s := twoGPUChain(t)
	ug, us := Unroll(g, s, 3)
	if ug.NumOps() != 6 || ug.NumEdges() != 3 {
		t.Fatalf("unrolled shape: %d ops, %d edges", ug.NumOps(), ug.NumEdges())
	}
	if us.NumOps() != 6 || us.NumStages() != 6 {
		t.Fatalf("unrolled schedule: %d ops, %d stages", us.NumOps(), us.NumStages())
	}
	if err := sched.Validate(ug, us); err != nil {
		t.Fatal(err)
	}
}

// TestShiftModelStageTimeAllocFree: stage probes of the unrolled model
// reuse one scratch slice instead of allocating per call.
func TestShiftModelStageTimeAllocFree(t *testing.T) {
	cfg := randdag.Paper()
	cfg.Ops, cfg.Layers, cfg.Deps, cfg.Seed = 40, 5, 80, 3
	g := randdag.MustGenerate(cfg)
	m := &shiftModel{inner: cost.FromGraph(g, cost.DefaultContention()), n: g.NumOps()}
	ops := []graph.OpID{1, 45, 90, 123}
	want := m.inner.StageTime([]graph.OpID{1, 5, 10, 3})
	if got := m.StageTime(ops); got != want { //lint:floatexact
		t.Fatalf("StageTime = %v, want %v", got, want)
	}
	if a := testing.AllocsPerRun(100, func() { m.StageTime(ops) }); a != 0 {
		t.Fatalf("StageTime allocates %v times per call, want 0", a)
	}
}
