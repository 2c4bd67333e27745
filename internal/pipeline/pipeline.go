// Package pipeline extends HIOS from single-inference latency to
// sustained-rate serving: real-time systems (the paper's plasma-control
// motivation) rarely run one inference — they run a stream of them, and a
// multi-GPU schedule pipelines naturally, with each GPU starting request
// r+1 as soon as its own stages of request r are done while downstream
// GPUs still finish r.
//
// The analysis unrolls a schedule K times — K copies of the computation
// graph, each GPU's stage list concatenated K times — and evaluates the
// unrolled system with the standard evaluator, so all of §III's precedence
// semantics carry over unchanged. The steady-state period (time between
// consecutive request completions) converges to the bottleneck GPU's busy
// time per request; the gap between period and single-request latency is
// the pipelining headroom.
package pipeline

import (
	"fmt"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/units"
)

// Report summarizes the sustained behaviour of a schedule.
type Report struct {
	// Requests is K, the number of unrolled inferences.
	Requests int
	// Completions holds each request's completion time.
	Completions []units.Millis
	// LatencyMs is the single-request latency (completion of request 0).
	LatencyMs units.Millis
	// SteadyPeriodMs is the time between the last two completions: the
	// steady-state inter-completion period.
	SteadyPeriodMs units.Millis
	// ThroughputPerSec is 1000 / SteadyPeriodMs.
	ThroughputPerSec float64
}

// Analyze unrolls schedule s of graph g K times and reports sustained
// throughput under cost model m. K must be at least 2 (steady state needs
// two consecutive completions; values of 4-8 give a settled period).
func Analyze(g *graph.Graph, m cost.Model, s *sched.Schedule, k int) (*Report, error) {
	if k < 2 {
		return nil, fmt.Errorf("pipeline: need at least 2 requests, got %d", k)
	}
	if err := sched.Validate(g, s); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	ug, us := Unroll(g, s, k)
	um := &shiftModel{inner: m, n: g.NumOps()}
	tm, err := sched.Evaluate(ug, um, us)
	if err != nil {
		return nil, fmt.Errorf("pipeline: unrolled schedule: %w", err)
	}
	n := g.NumOps()
	rep := &Report{Requests: k, Completions: make([]units.Millis, k)}
	for r := 0; r < k; r++ {
		var done units.Millis
		for v := r * n; v < (r+1)*n; v++ {
			if tm.OpFinish[v] > done {
				done = tm.OpFinish[v]
			}
		}
		rep.Completions[r] = done
	}
	rep.LatencyMs = rep.Completions[0]
	rep.SteadyPeriodMs = rep.Completions[k-1] - rep.Completions[k-2]
	if rep.SteadyPeriodMs > 0 {
		rep.ThroughputPerSec = 1000 / float64(rep.SteadyPeriodMs)
	}
	return rep, nil
}

// Unroll builds the K-fold replication of g and s: request r's operator v
// maps to ID r*n + v; each GPU's stage list is the K-fold concatenation of
// its per-request stages, so requests flow through each device in order
// while different devices may work on different requests concurrently.
func Unroll(g *graph.Graph, s *sched.Schedule, k int) (*graph.Graph, *sched.Schedule) {
	n := g.NumOps()
	ug := graph.New(n*k, g.NumEdges()*k)
	for r := 0; r < k; r++ {
		for _, op := range g.Ops() {
			c := op
			c.Name = fmt.Sprintf("r%d.%s", r, op.Name)
			ug.AddOp(c)
		}
		for _, e := range g.Edges() {
			ug.AddEdge(e.From+graph.OpID(r*n), e.To+graph.OpID(r*n), e.Time)
		}
	}
	ug.MustFinalize()

	us := sched.New(len(s.GPUs))
	for r := 0; r < k; r++ {
		off := graph.OpID(r * n)
		for gi := range s.GPUs {
			for _, st := range s.GPUs[gi].Stages {
				ops := make([]graph.OpID, len(st.Ops))
				for i, v := range st.Ops {
					ops[i] = v + off
				}
				us.AppendStage(gi, ops)
			}
		}
	}
	return ug, us
}

// shiftModel adapts the original cost model to unrolled operator IDs.
// Stages never mix requests, so mapping members back to their original
// IDs preserves t(S).
type shiftModel struct {
	inner cost.Model
	n     int
	// mapped is StageTime's scratch: a shiftModel serves one Analyze
	// call, whose evaluation probes it from one goroutine.
	mapped []graph.OpID
}

var (
	_ cost.Model         = (*shiftModel)(nil)
	_ cost.TopologyModel = (*shiftModel)(nil)
)

func (m *shiftModel) orig(v graph.OpID) graph.OpID { return graph.OpID(int(v) % m.n) }

func (m *shiftModel) OpTime(v graph.OpID) units.Millis { return m.inner.OpTime(m.orig(v)) }

func (m *shiftModel) CommTime(u, v graph.OpID) units.Millis {
	return m.inner.CommTime(m.orig(u), m.orig(v))
}

// CommTimeBetween forwards placement-dependent transfer times: for plain
// inner models this degenerates to the flat pair cost.
func (m *shiftModel) CommTimeBetween(u, v graph.OpID, gu, gv int) units.Millis {
	return cost.CommBetween(m.inner, m.orig(u), m.orig(v), gu, gv)
}

func (m *shiftModel) StageTime(ops []graph.OpID) units.Millis {
	m.mapped = m.mapped[:0]
	for _, v := range ops {
		m.mapped = append(m.mapped, m.orig(v))
	}
	return m.inner.StageTime(m.mapped)
}
