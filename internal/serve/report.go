package serve

import (
	"fmt"
	"io"

	"github.com/shus-lab/hios/internal/cluster"
	"github.com/shus-lab/hios/internal/units"
)

// Report summarizes one serving simulation: SLO attainment, goodput,
// tail latency, per-tenant breakdown, per-GPU utilization and the
// queue-depth timeline. All slices are in deterministic order.
type Report struct {
	// Policy is the dispatch discipline that produced this report.
	Policy Policy
	// Horizon is the (filled) arrival window; Makespan is when the last
	// event fired — the drain time of everything admitted before the
	// horizon.
	Horizon  units.Millis
	Makespan units.Millis
	// Offered counts every request that arrived; Completed the ones
	// that ran to completion; SLOMet the completions within deadline;
	// Shed the ones dropped by admission control.
	Offered   int
	Completed int
	SLOMet    int
	Shed      int
	// Attainment is SLOMet/Offered (1 when nothing was offered):
	// the fraction of offered load served within its SLO.
	Attainment float64
	// GoodputPerSec is deadline-meeting completions per second of
	// makespan.
	GoodputPerSec float64
	// P50/P95/P99/Max summarize the response-time distribution
	// (arrival to completion) over completed requests.
	P50, P95, P99, Max units.Millis
	// Tenants breaks the same counters down per tenant, in Options
	// order.
	Tenants []TenantReport
	// GPUs reports utilization per (model, replica, GPU), in model
	// order then replica order then GPU order.
	GPUs []GPUUtil
	// Queue is the total queued-request depth over time: one point per
	// instant the depth changed.
	Queue []QueuePoint
	// Requests holds every request's fate when Options.RecordRequests
	// was set (in global arrival-event order), nil otherwise.
	Requests []RequestOutcome
}

// GPUUtil is the utilization of one GPU of one pipeline replica.
type GPUUtil struct {
	// Model names the deployment; Replica and GPU index within it.
	Model   string
	Replica int
	GPU     int
	// Starts is how many requests this replica admitted; Busy the total
	// busy time this GPU accumulated across them; Util is Busy over the
	// report makespan.
	Starts int
	Busy   units.Millis
	Util   float64
}

// Render writes a human-readable summary. The output is deterministic
// for a given Report.
func (r *Report) Render(w io.Writer) error {
	pf := func(format string, args ...any) (err error) {
		_, err = fmt.Fprintf(w, format, args...)
		return
	}
	if err := pf("policy %s  horizon %.2f ms  makespan %.2f ms\n",
		r.Policy, float64(r.Horizon), float64(r.Makespan)); err != nil {
		return err
	}
	if err := pf("offered %d  completed %d  slo-met %d  shed %d  attainment %.4f  goodput %.2f req/s\n",
		r.Offered, r.Completed, r.SLOMet, r.Shed, r.Attainment, r.GoodputPerSec); err != nil {
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
	for _, g := range r.GPUs {
		if err := pf("gpu %s/r%d/g%d  starts %4d  busy %.2f ms  util %.3f\n",
			g.Model, g.Replica, g.GPU, g.Starts, float64(g.Busy), g.Util); err != nil {
			return err
		}
	}
	return nil
}

// WriteQueue streams the queue-depth timeline as two-column CSV
// (time_ms,depth), suitable for plotting.
func (r *Report) WriteQueue(w io.Writer) error { return cluster.WriteQueue(w, r.Queue) }
