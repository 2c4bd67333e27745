package cluster

import (
	"fmt"
	"io"
	"sort"

	"github.com/shus-lab/hios/internal/stats"
	"github.com/shus-lab/hios/internal/units"
)

// Report summarizes one cluster simulation: SLO attainment, goodput,
// tail latency, per-tenant and per-pool breakdowns, the scaling
// timeline, and replica-time cost. All slices are in deterministic
// order, so the same Options always render a byte-identical Report.
type Report struct {
	// Router is the routing policy that produced this report.
	Router RouterPolicy
	// Horizon is the (filled) arrival window; Makespan is when the last
	// event fired.
	Horizon  units.Millis
	Makespan units.Millis
	// Offered counts every request that arrived at the gateway; Admitted
	// the ones admission control let through; Completed the ones that ran
	// to completion; SLOMet the completions within deadline; Shed the
	// gateway drops plus the hopeless dispatch-time drops.
	Offered   int
	Admitted  int
	Completed int
	SLOMet    int
	Shed      int
	// Attainment is SLOMet/Offered (1 when nothing was offered).
	Attainment float64
	// GoodputPerSec is deadline-meeting completions per second of
	// makespan.
	GoodputPerSec float64
	// P50/P95/P99/Max summarize the response-time distribution over
	// completed requests.
	P50, P95, P99, Max units.Millis
	// Events is the number of simulation events processed — the figure
	// sweeps assert their per-cell event floor against it.
	Events int64
	// CostUnits is the fleet's replica-time cost: for every pool,
	// replica-seconds integrated over the run times the platform's
	// relative cost rate, summed.
	CostUnits float64
	// Tenants breaks the counters down per tenant, in Options order.
	Tenants []TenantReport
	// Nodes reports each (node, deployment) pool, in node order then
	// deployment order.
	Nodes []NodeReport
	// Scales is the autoscaler's decision timeline, in event order.
	Scales []ScaleEvent
	// Queue is the cluster-wide queued-request depth over time.
	Queue []QueuePoint
}

// TenantReport is one tenant's slice of a serving report.
type TenantReport struct {
	Name          string
	Model         int
	Offered       int
	Completed     int
	SLOMet        int
	Shed          int
	Attainment    float64
	P50, P95, P99 units.Millis
}

// QueuePoint is one step of the queue-depth timeline.
type QueuePoint struct {
	T     units.Millis
	Depth int
}

// RequestOutcome is one request's fate (Outcome.Requests).
type RequestOutcome struct {
	// Tenant and Index identify the request (Index is the tenant's
	// issue order).
	Tenant int
	Index  int
	// Arrive and Deadline are absolute times; Finish is completion (or
	// shed) time.
	Arrive   units.Millis
	Deadline units.Millis
	Finish   units.Millis
	// Completed is false for shed requests; Met reports Finish <=
	// Deadline for completed ones.
	Completed bool
	Met       bool
}

// NodeReport is one (node, deployment) replica pool's slice of the
// cluster report.
type NodeReport struct {
	// Node is the flattened node index; Platform its preset key;
	// Deployment the served model's name.
	Node       int
	Platform   string
	Deployment string
	// Starts is how many requests the pool admitted; Replicas its final
	// live count; Peak the highest live count reached.
	Starts   int
	Replicas int
	Peak     int
	// Busy is the total GPU busy time the pool's starts induced; Util is
	// Busy over the pool's integrated replica-time (busy fraction of the
	// capacity that actually existed).
	Busy units.Millis
	Util float64
	// Cost is the pool's replica-seconds times the platform cost rate.
	Cost float64
}

// ScaleEvent is one autoscaler decision.
type ScaleEvent struct {
	// T is the decision time; Node and Deployment identify the pool.
	T          units.Millis
	Node       int
	Deployment int
	// From and To are the live replica counts before and after. A
	// scale-down may take effect lazily (when every replica is busy, the
	// next freed replica retires), but the decision is recorded here.
	From int
	To   int
}

// report assembles the Report from the drained engine state.
func (e *engine) report(makespan units.Millis) *Report {
	r := &Report{
		Router:   e.o.Router,
		Horizon:  e.o.Horizon,
		Makespan: makespan,
		Events:   e.popped,
		Tenants:  make([]TenantReport, len(e.o.Tenants)),
		Scales:   e.scales,
		Queue:    e.points,
	}
	for ti, t := range e.o.Tenants {
		r.Tenants[ti] = TenantReport{Name: t.Name, Model: t.Model}
	}

	var all []float64
	per := make([][]float64, len(e.o.Tenants))
	for i := range e.reqs {
		req := &e.reqs[i]
		tr := &r.Tenants[req.tenant]
		r.Offered++
		tr.Offered++
		switch req.state {
		case stShedGateway:
			r.Shed++
			tr.Shed++
		case stShedHopeless:
			r.Admitted++
			r.Shed++
			tr.Shed++
		case stDone:
			r.Admitted++
			r.Completed++
			tr.Completed++
			if req.finish <= req.deadline {
				r.SLOMet++
				tr.SLOMet++
			}
			resp := float64(req.finish - req.arrive)
			all = append(all, resp)
			per[req.tenant] = append(per[req.tenant], resp)
		}
	}

	r.Attainment = attainment(r.SLOMet, r.Offered)
	if makespan > 0 {
		r.GoodputPerSec = float64(r.SLOMet) * 1e3 / float64(makespan)
	}
	sort.Float64s(all)
	r.P50 = units.Millis(stats.Percentile(all, 50))
	r.P95 = units.Millis(stats.Percentile(all, 95))
	r.P99 = units.Millis(stats.Percentile(all, 99))
	r.Max = units.Millis(stats.Max(all))
	if len(all) == 0 {
		r.Max = 0
	}
	for ti := range r.Tenants {
		tr := &r.Tenants[ti]
		tr.Attainment = attainment(tr.SLOMet, tr.Offered)
		sort.Float64s(per[ti])
		tr.P50 = units.Millis(stats.Percentile(per[ti], 50))
		tr.P95 = units.Millis(stats.Percentile(per[ti], 95))
		tr.P99 = units.Millis(stats.Percentile(per[ti], 99))
	}

	for ni := range e.nodes {
		nd := &e.nodes[ni]
		for di := range nd.pools {
			p := &nd.pools[di]
			p.setLive(p.live, makespan) // close the replica-time integral
			busy := p.prof.Busy.Scale(float64(p.starts))
			util := 0.0
			if p.replicaMs > 0 {
				util = busy.Ratio(p.replicaMs)
			}
			cost := float64(p.replicaMs.Seconds()) * nd.preset.Cost
			r.CostUnits += cost
			r.Nodes = append(r.Nodes, NodeReport{
				Node:       ni,
				Platform:   nd.preset.Key,
				Deployment: e.o.Deployments[di].Name,
				Starts:     p.starts,
				Replicas:   p.live,
				Peak:       p.peak,
				Busy:       busy,
				Util:       util,
				Cost:       cost,
			})
		}
	}
	return r
}

func attainment(met, offered int) float64 {
	if offered == 0 {
		return 1
	}
	return float64(met) / float64(offered)
}

// Render writes a human-readable summary. The output is deterministic
// for a given Report.
func (r *Report) Render(w io.Writer) error {
	pf := func(format string, args ...any) (err error) {
		_, err = fmt.Fprintf(w, format, args...)
		return
	}
	if err := pf("router %s  horizon %.2f ms  makespan %.2f ms  events %d\n",
		r.Router, float64(r.Horizon), float64(r.Makespan), r.Events); err != nil {
		return err
	}
	if err := pf("offered %d  admitted %d  completed %d  slo-met %d  shed %d  attainment %.4f  goodput %.2f req/s  cost %.2f\n",
		r.Offered, r.Admitted, r.Completed, r.SLOMet, r.Shed, r.Attainment, r.GoodputPerSec, r.CostUnits); err != nil {
		return err
	}
	if err := pf("latency p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  max %.3f ms\n",
		float64(r.P50), float64(r.P95), float64(r.P99), float64(r.Max)); err != nil {
		return err
	}
	for _, t := range r.Tenants {
		if err := pf("tenant %-12s model %d  offered %4d  met %4d  shed %4d  attainment %.4f  p99 %.3f ms\n",
			t.Name, t.Model, t.Offered, t.SLOMet, t.Shed, t.Attainment, float64(t.P99)); err != nil {
			return err
		}
	}
	for _, n := range r.Nodes {
		if err := pf("node %d/%s  %s  starts %4d  replicas %d (peak %d)  util %.3f  cost %.2f\n",
			n.Node, n.Platform, n.Deployment, n.Starts, n.Replicas, n.Peak, n.Util, n.Cost); err != nil {
			return err
		}
	}
	for _, s := range r.Scales {
		if err := pf("scale t %.2f ms  node %d dep %d  %d -> %d\n",
			float64(s.T), s.Node, s.Deployment, s.From, s.To); err != nil {
			return err
		}
	}
	return nil
}

// WriteQueue streams the queue-depth timeline as two-column CSV
// (time_ms,depth), suitable for plotting.
func (r *Report) WriteQueue(w io.Writer) error { return WriteQueue(w, r.Queue) }

// WriteQueue streams a queue-depth timeline as two-column CSV
// (time_ms,depth); both serving reports write their timelines with it.
func WriteQueue(w io.Writer, queue []QueuePoint) error {
	if _, err := io.WriteString(w, "time_ms,depth\n"); err != nil {
		return err
	}
	for _, p := range queue {
		if _, err := fmt.Fprintf(w, "%.6f,%d\n", float64(p.T), p.Depth); err != nil {
			return err
		}
	}
	return nil
}
