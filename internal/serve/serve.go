// Package serve is the online serving layer of the HIOS reproduction: a
// deterministic discrete-event simulator of a multi-tenant model-serving
// deployment built on top of the offline scheduling core.
//
// The paper answers an offline question — one request, one schedule, one
// latency. A production deployment answers an online one: requests for
// one or more models arrive continuously, each with a relative deadline,
// and a dispatcher decides which queued request the next free pipeline
// replica runs (and, under admission control, which requests to shed).
// This package simulates exactly that. A deployed Model is characterized
// by the two numbers the pipeline analysis derives from a schedule — the
// single-request latency L and the steady-state admission period P — so
// scheduler quality (lower L, lower P) is directly visible as serving
// capacity and SLO attainment.
//
// The deployment runs on the module's one serving engine, the fleet
// simulator of internal/cluster, as a one-node cluster: each Model is
// one replica pool, the Policy picks the pools' queue order and whether
// hopeless requests are shed, and Report is built from the engine's
// summary. The engine obeys the repository's determinism contract
// (DESIGN.md §7 and §9): no wall clock, no global RNG, seeded arrival
// streams, events totally ordered by (time, sequence number), so the
// same Options yield a byte-identical Report rendering on every run.
package serve

import (
	"errors"
	"fmt"
	"math"

	"github.com/shus-lab/hios/internal/cluster"
	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/pipeline"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/units"
)

// The request and report vocabulary shared with the engine.
type (
	// Tenant is one request class: an arrival process plus a relative
	// deadline; Model indexes Options.Models.
	Tenant = cluster.Tenant
	// TenantReport is one tenant's slice of the serving report.
	TenantReport = cluster.TenantReport
	// QueuePoint is one step of the queue-depth timeline.
	QueuePoint = cluster.QueuePoint
	// RequestOutcome is one request's fate, recorded when
	// Options.RecordRequests is set.
	RequestOutcome = cluster.RequestOutcome
	// PolicyRegistry is the single source of truth for a policy
	// enumeration (see Registry).
	PolicyRegistry[P ~string] = cluster.PolicyRegistry[P]
)

// Policy selects the dispatch discipline of the serving queue.
type Policy string

const (
	// FIFO serves requests strictly in arrival order.
	FIFO Policy = "fifo"
	// EDF serves the queued request with the earliest absolute deadline
	// first (ties broken by arrival order).
	EDF Policy = "edf"
	// EDFShed is EDF with shed-on-hopeless admission control: a request
	// is dropped at dispatch time when even an immediate start provably
	// misses its deadline (now + L > arrival + deadline), so capacity is
	// never spent on a certain miss.
	EDFShed Policy = "edf-shed"
)

// Registry enumerates the dispatch policies of this package. Policies,
// Options.Validate and the CLI usage text all read from here.
var Registry = PolicyRegistry[Policy]{
	{Policy: FIFO, Usage: "strict arrival order"},
	{Policy: EDF, Usage: "earliest absolute deadline first"},
	{Policy: EDFShed, Usage: "EDF plus shed-on-hopeless admission control"},
}

// Policies lists every implemented dispatch policy, enumerated from
// Registry.
func Policies() []Policy { return Registry.Policies() }

// PolicyUsage renders the dispatch policies as a flag usage string.
func PolicyUsage() string { return Registry.Usage() }

// Sentinel errors of Options.Validate, all errors.Is-matchable.
var (
	// ErrNoModels reports an Options with an empty Models list.
	ErrNoModels = errors.New("serve: no models deployed")
	// ErrNoTenants reports an Options with an empty Tenants list.
	ErrNoTenants = errors.New("serve: no tenants")
	// ErrUnknownPolicy reports an unrecognized Policy value.
	ErrUnknownPolicy = errors.New("serve: unknown policy")
	// ErrBadModel reports a Model with nonpositive latency or period, a
	// period exceeding its latency, or a negative replica count.
	ErrBadModel = errors.New("serve: bad model")
	// ErrBadTenant reports a Tenant with an out-of-range model index, a
	// nonpositive deadline, an infinite rate, or an arrival process that
	// is neither purely open-loop (Rate > 0) nor purely closed-loop
	// (Clients > 0).
	ErrBadTenant = errors.New("serve: bad tenant")
	// ErrBadHorizon reports a negative or infinite arrival horizon.
	ErrBadHorizon = errors.New("serve: bad horizon")
)

// Model is one deployed model: a set of identical pipeline replicas,
// each executing the same multi-GPU schedule. Latency and Period come
// from the pipeline analysis of that schedule (NewModel); GPUBusy is the
// per-GPU busy time one request adds to a replica, used for utilization
// accounting.
type Model struct {
	// Name labels the deployment in reports.
	Name string
	// Replicas is the number of identical pipeline replicas. Zero
	// selects 1.
	Replicas int
	// Latency is the single-request completion time on an idle replica.
	Latency units.Millis
	// Period is the steady-state admission interval: a replica accepts
	// a new request every Period while earlier ones drain through its
	// pipeline. Period <= Latency; equality means no pipelining.
	Period units.Millis
	// GPUBusy is the busy time one request adds to each of a replica's
	// GPUs (may be empty when utilization accounting is not needed).
	GPUBusy []units.Millis
}

// NewModel derives a deployment Model from a schedule: Latency and
// Period from the pipeline unrolling analysis (8 back-to-back requests,
// enough for the period to settle), GPUBusy from the evaluated timing.
// Replicas starts at 1; callers scale it to their GPU budget.
func NewModel(name string, g *graph.Graph, m cost.Model, s *sched.Schedule) (Model, error) {
	rep, err := pipeline.Analyze(g, m, s, 8)
	if err != nil {
		return Model{}, fmt.Errorf("serve: %w", err)
	}
	tm, err := sched.Evaluate(g, m, s)
	if err != nil {
		return Model{}, fmt.Errorf("serve: %w", err)
	}
	busy := make([]units.Millis, len(s.GPUs))
	for gi := range s.GPUs {
		for j := range s.GPUs[gi].Stages {
			busy[gi] += tm.StageFinish[gi][j] - tm.StageStart[gi][j]
		}
	}
	period := rep.SteadyPeriodMs
	if period <= 0 || period > rep.LatencyMs {
		period = rep.LatencyMs
	}
	return Model{
		Name:     name,
		Replicas: 1,
		Latency:  rep.LatencyMs,
		Period:   period,
		GPUBusy:  busy,
	}, nil
}

// Capacity returns the deployment's maximum sustainable throughput in
// requests per second: Replicas admissions every Period.
func (m Model) Capacity() float64 {
	if m.Period <= 0 {
		return 0
	}
	r := m.Replicas
	if r <= 0 {
		r = 1
	}
	return float64(r) * 1e3 / float64(m.Period)
}

// ProfileOf converts a model derived for the given platform (NewModel
// on a schedule computed with that platform's cost model) into the
// cluster profile of that platform: its latency, period and total
// per-request busy time across the replica's GPUs.
func ProfileOf(platform string, m Model) cluster.Profile {
	var busy units.Millis
	for _, b := range m.GPUBusy {
		busy += b
	}
	return cluster.Profile{Platform: platform, Latency: m.Latency, Period: m.Period, Busy: busy}
}

// Options configures one serving simulation. The zero value of every
// optional field selects a documented default (fill pattern of
// runtime.Options); Validate reports structurally invalid configurations
// with errors.Is-matchable sentinels.
type Options struct {
	// Models lists the deployed models. Required.
	Models []Model
	// Tenants lists the request classes. Required.
	Tenants []Tenant
	// Policy is the dispatch discipline. Empty selects FIFO.
	Policy Policy
	// Horizon is the arrival window: no request arrives at or after
	// this time, and the simulation then runs until every admitted
	// request drains. Zero selects 1000 ms.
	Horizon units.Millis
	// Seed seeds the arrival processes. Zero selects 1.
	Seed int64
	// RecordRequests additionally populates Report.Requests with every
	// request's individual fate (tests and debugging; off by default
	// because it grows with the request count).
	RecordRequests bool
}

// Validate checks the configuration, returning the first violation
// wrapped around one of the sentinel errors above. Zero values with
// documented defaults (Policy, Horizon, Seed, Model.Replicas) are valid.
func (o Options) Validate() error {
	if len(o.Models) == 0 {
		return ErrNoModels
	}
	for i, m := range o.Models {
		if m.Latency <= 0 || m.Period <= 0 {
			return fmt.Errorf("%w: model %d (%s) needs positive latency and period", ErrBadModel, i, m.Name)
		}
		if m.Period > m.Latency {
			return fmt.Errorf("%w: model %d (%s) period %g exceeds latency %g", ErrBadModel, i, m.Name, float64(m.Period), float64(m.Latency))
		}
		if m.Replicas < 0 {
			return fmt.Errorf("%w: model %d (%s) has negative replica count %d", ErrBadModel, i, m.Name, m.Replicas)
		}
	}
	if len(o.Tenants) == 0 {
		return ErrNoTenants
	}
	for i, t := range o.Tenants {
		if err := cluster.CheckTenant(t, len(o.Models)); err != nil {
			return fmt.Errorf("%w: tenant %d (%s) %v", ErrBadTenant, i, t.Name, err)
		}
	}
	if o.Policy != "" && !Registry.Valid(o.Policy) {
		return fmt.Errorf("%w %q (want one of %v)", ErrUnknownPolicy, string(o.Policy), Policies())
	}
	if o.Horizon < 0 || math.IsInf(float64(o.Horizon), 1) {
		return fmt.Errorf("%w: %g ms", ErrBadHorizon, float64(o.Horizon))
	}
	return nil
}

// Run simulates the deployment described by opt and returns its serving
// report. The same Options always produce the same Report.
func Run(opt Options) (*Report, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Policy == "" {
		opt.Policy = FIFO
	}
	in := cluster.Input{
		Options: cluster.Options{
			Deployments: make([]cluster.Deployment, len(opt.Models)),
			Tenants:     opt.Tenants,
			Admission:   cluster.Admission{ShedHopeless: opt.Policy == EDFShed},
			Horizon:     opt.Horizon,
			Seed:        opt.Seed,
		},
		Nodes: []cluster.NodeInput{{Pools: make([]cluster.PoolInput, len(opt.Models))}},
		FIFO:  opt.Policy == FIFO,
	}
	for mi, m := range opt.Models {
		in.Options.Deployments[mi].Name = m.Name
		in.Nodes[0].Pools[mi] = cluster.PoolInput{Profile: ProfileOf("", m), Replicas: max(m.Replicas, 1)}
	}
	out, err := cluster.Simulate(in)
	if err != nil {
		return nil, err
	}
	c := out.Report
	r := &Report{
		Policy:        opt.Policy,
		Horizon:       c.Horizon,
		Makespan:      c.Makespan,
		Offered:       c.Offered,
		Completed:     c.Completed,
		SLOMet:        c.SLOMet,
		Shed:          c.Shed,
		Attainment:    c.Attainment,
		GoodputPerSec: c.GoodputPerSec,
		P50:           c.P50,
		P95:           c.P95,
		P99:           c.P99,
		Max:           c.Max,
		Tenants:       c.Tenants,
		Queue:         c.Queue,
	}
	for mi, m := range opt.Models {
		for rep, starts := range out.ReplicaStarts(0, mi) {
			for g, b := range m.GPUBusy {
				busy := b.Scale(float64(starts))
				util := 0.0
				if r.Makespan > 0 {
					util = busy.Ratio(r.Makespan)
				}
				r.GPUs = append(r.GPUs, GPUUtil{Model: m.Name, Replica: rep, GPU: g, Starts: starts, Busy: busy, Util: util})
			}
		}
	}
	if opt.RecordRequests {
		r.Requests = out.Requests()
	}
	return r, nil
}
