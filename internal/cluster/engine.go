package cluster

import (
	"fmt"
	"math/rand"

	"github.com/shus-lab/hios/internal/des"
	"github.com/shus-lab/hios/internal/stats"
	"github.com/shus-lab/hios/internal/units"
)

// Request lifecycle states.
const (
	stQueued = iota
	stRunning
	stDone
	stShedGateway  // dropped at admission (token bucket or queue depth)
	stShedHopeless // dropped at dispatch (provable deadline miss)
)

// request is one in-flight inference request.
type request struct {
	tenant   int
	index    int // per-tenant issue order
	client   int // closed-loop client index, -1 for open-loop
	node     int // routed node, -1 until admitted
	replica  int // replica of the node's pool that ran it
	arrive   units.Millis
	deadline units.Millis // absolute: arrive + tenant deadline
	finish   units.Millis
	state    int
}

// Event kinds; simultaneous events execute in push order via the heap's
// internal sequence number.
const (
	evArrive = iota // a request reaches the gateway
	evFree          // the replica a request started on admits its next one
	evDone          // a request completes
	evTick          // the autoscaler evaluates every pool
)

// cev is the engine's event payload; the (time, sequence) total-order
// key lives in the des.EventHeap. Every event but evTick names a
// request; evFree frees the replica that request started on, which the
// request records, so the payload stays two words.
type cev struct {
	kind int
	req  int
}

// pool is one (node, deployment) replica set: the unit the router
// targets and the autoscaler scales.
type pool struct {
	prof   Profile
	queue  requestQueue
	idle   replicaHeap
	live   int // current replica count
	target int // autoscaler's desired count (live catches up lazily)
	next   int // next fresh replica index for scale-up
	peak   int

	starts int // requests admitted by this pool

	// Replica-time integration for cost accounting: replicaMs
	// accumulates live replica-milliseconds up to lastChange.
	replicaMs  units.Millis
	lastChange units.Millis

	// Outstanding-depth integration for the autoscaler signal: outInt
	// accumulates outstanding-request-milliseconds up to lastTouch, so a
	// tick can read the exact time-weighted average depth since the
	// previous tick instead of a noisy instantaneous sample.
	outInt    units.Millis
	lastTouch units.Millis
	lastOut   units.Millis // outInt at the previous tick

	// Autoscaler sliding windows (nil while the autoscaler is off).
	depthWin      []float64
	doneWin       []int
	metWin        []int
	winIdx        int
	winFill       int
	done          int // cumulative completions
	met           int // cumulative in-deadline completions
	lastDone      int
	lastMet       int
	cooldownUntil units.Millis
}

// outstanding returns queued plus in-service requests: the router's load
// signal and the autoscaler's concurrency signal.
func (p *pool) outstanding() int { return p.queue.Len() + p.live - p.idle.Len() }

// touch integrates the outstanding depth up to now. Called before every
// mutation that changes the depth; zero-elapsed calls are no-ops.
func (p *pool) touch(now units.Millis) {
	p.outInt += (now - p.lastTouch).Scale(float64(p.outstanding()))
	p.lastTouch = now
}

// setLive moves the live replica count to n at time now, integrating
// replica-time for cost accounting.
func (p *pool) setLive(n int, now units.Millis) {
	p.replicaMs += (now - p.lastChange).Scale(float64(p.live))
	p.lastChange = now
	p.live = n
	if n > p.peak {
		p.peak = n
	}
}

// node is one machine of the fleet: a platform preset plus one replica
// pool per deployment.
type node struct {
	preset Preset
	pools  []pool
}

// engine is the running cluster simulation state.
type engine struct {
	o      Options
	nodes  []node
	reqs   []request
	issued []int // per-tenant issue counter
	events des.EventHeap[cev]
	qseq   int // global enqueue order, the FIFO key and EDF tie-break
	depth  int // cluster-wide queued requests (gateway shedding signal)
	popped int64
	points []QueuePoint
	scales []ScaleEvent
	rngs   []*rand.Rand // per-tenant arrival streams
	rng    *rand.Rand   // router stream (random policy only)
	aff    []int        // per-tenant affinity node (affinity policy only)

	// Token bucket (enabled when o.Admission.RatePerSec > 0).
	tokens     float64
	lastRefill units.Millis
}

// newRequest creates a request arriving at the given time and schedules
// its arrival event.
func (e *engine) newRequest(tenant, client int, at units.Millis) {
	t := &e.o.Tenants[tenant]
	ri := len(e.reqs)
	e.reqs = append(e.reqs, request{
		tenant:   tenant,
		index:    e.issued[tenant],
		client:   client,
		node:     -1,
		arrive:   at,
		deadline: at + t.Deadline,
		state:    stQueued,
	})
	e.issued[tenant]++
	e.events.Push(at, cev{kind: evArrive, req: ri})
}

// expMillis draws an exponential duration with the given mean.
func expMillis(rng *rand.Rand, mean units.Millis) units.Millis {
	return mean.Scale(rng.ExpFloat64())
}

// reissue puts a closed-loop client back into think state after its
// request finished (completed or shed) at the given time.
func (e *engine) reissue(tenant, client int, now units.Millis) {
	if client < 0 {
		return
	}
	t := &e.o.Tenants[tenant]
	next := now + expMillis(e.rngs[tenant], t.Think)
	if next < e.o.Horizon {
		e.newRequest(tenant, client, next)
	}
}

// admit runs gateway admission control for a request arriving at now.
// It returns false after shedding the request when the token bucket is
// empty or the cluster-wide queue is at its depth limit.
func (e *engine) admit(ri int, now units.Millis) bool {
	a := &e.o.Admission
	if a.RatePerSec > 0 {
		e.tokens += (now - e.lastRefill).Ratio(units.Millis(1e3)) * a.RatePerSec
		if max := float64(a.Burst); e.tokens > max {
			e.tokens = max
		}
		e.lastRefill = now
		if e.tokens < 1 {
			e.shed(ri, stShedGateway, now)
			return false
		}
		e.tokens--
	}
	if a.MaxQueue > 0 && e.depth >= a.MaxQueue {
		e.shed(ri, stShedGateway, now)
		return false
	}
	return true
}

// shed drops request ri at time now in the given shed state.
func (e *engine) shed(ri, state int, now units.Millis) {
	r := &e.reqs[ri]
	r.state = state
	r.finish = now
	e.reissue(r.tenant, r.client, now)
}

// dispatch matches idle replicas of pool (ni, di) with its queued
// requests at time now, shedding hopeless requests first when the
// gateway is configured to. This is the per-event inner loop of the
// cluster simulator — the router feeds it and the free/scale events
// re-enter it — and the package's hot-path root.
//
//lint:hotpath
func (e *engine) dispatch(ni, di int, now units.Millis) {
	p := &e.nodes[ni].pools[di]
	p.touch(now)
	for p.idle.Len() > 0 && p.queue.Len() > 0 {
		ri := p.queue.Pop()
		r := &e.reqs[ri]
		e.depth--
		if e.o.Admission.ShedHopeless && now+p.prof.Latency > r.deadline {
			// Provably hopeless: even starting this instant misses the
			// deadline. Shed without consuming the replica.
			r.state = stShedHopeless
			r.finish = now
			e.reissue(r.tenant, r.client, now)
			continue
		}
		rep := p.idle.Pop()
		r.state = stRunning
		r.replica = rep
		p.starts++
		e.events.Push(now+p.prof.Latency, cev{kind: evDone, req: ri})
		e.events.Push(now+p.prof.Period, cev{kind: evFree, req: ri})
	}
}

// recordDepth appends a queue-depth change point at time now, coalescing
// multiple changes at the same instant into the final value.
func (e *engine) recordDepth(now units.Millis) {
	if n := len(e.points); n > 0 {
		if e.points[n-1].Depth == e.depth {
			return
		}
		// Exact IEEE equality: same event timestamp, not a tolerance.
		if e.points[n-1].T == now { //lint:floatexact same-event timestamp dedupe: both values are copies of one event time
			e.points[n-1].Depth = e.depth
			return
		}
	} else if e.depth == 0 {
		return
	}
	e.points = append(e.points, QueuePoint{T: now, Depth: e.depth})
}

// Input is the engine's flattened input. Run builds it from Options by
// expanding every node group into single nodes; serve.Run builds a
// one-node Input with one pool per model.
type Input struct {
	// Options supplies the tenants, router, admission control,
	// autoscaler, horizon and seed. Fleet is not read (Nodes replaces
	// it) and Deployments only names the pools in the report.
	Options Options
	// Nodes lists every node with one pool per deployment.
	Nodes []NodeInput
	// FIFO orders every pool's queue by enqueue sequence instead of by
	// absolute deadline (EDF).
	FIFO bool
}

// NodeInput is one node of an Input: its platform preset (the router's
// cost rate and the report's key) and one pool per deployment.
type NodeInput struct {
	Preset Preset
	Pools  []PoolInput
}

// PoolInput is one (node, deployment) replica pool of an Input.
type PoolInput struct {
	// Profile is the deployment's latency, period and busy time here.
	Profile Profile
	// Replicas is the initial live replica count (clamped to the
	// autoscaler's bounds when it is on).
	Replicas int
}

// Outcome is one drained engine run: the fleet report plus the
// per-request state a single-node report is built from.
type Outcome struct {
	Report *Report
	e      *engine
}

// ReplicaStarts returns how many requests each replica of pool
// (node, dep) admitted, indexed by replica.
func (o *Outcome) ReplicaStarts(node, dep int) []int {
	starts := make([]int, o.e.nodes[node].pools[dep].next)
	for i := range o.e.reqs {
		r := &o.e.reqs[i]
		if r.state == stDone && r.node == node && o.e.o.Tenants[r.tenant].Model == dep {
			starts[r.replica]++
		}
	}
	return starts
}

// Requests returns every request's fate in arrival-event order (nil
// when nothing arrived).
func (o *Outcome) Requests() []RequestOutcome {
	if len(o.e.reqs) == 0 {
		return nil
	}
	out := make([]RequestOutcome, len(o.e.reqs))
	for i := range o.e.reqs {
		r := &o.e.reqs[i]
		done := r.state == stDone
		out[i] = RequestOutcome{
			Tenant:    r.tenant,
			Index:     r.index,
			Arrive:    r.arrive,
			Deadline:  r.deadline,
			Finish:    r.finish,
			Completed: done,
			Met:       done && r.finish <= r.deadline,
		}
	}
	return out
}

// Run simulates the cluster described by opt and returns its report.
// The same Options always produce the same Report.
func Run(opt Options) (*Report, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	out, err := Simulate(Input{Options: opt, Nodes: opt.flatten()})
	if err != nil {
		return nil, err
	}
	return out.Report, nil
}

// Simulate runs the engine on a flattened input whose Options already
// passed validation, filling their defaults first. The same Input always
// produces the same Outcome.
func Simulate(in Input) (*Outcome, error) {
	opt := in.Options
	opt.fill()
	e := &engine{
		o:      opt,
		nodes:  make([]node, len(in.Nodes)),
		issued: make([]int, len(opt.Tenants)),
		rngs:   make([]*rand.Rand, len(opt.Tenants)),
		tokens: float64(opt.Admission.Burst),
	}
	for ni, n := range in.Nodes {
		nd := &e.nodes[ni]
		nd.preset = n.Preset
		nd.pools = make([]pool, len(n.Pools))
		for di, pi := range n.Pools {
			p := &nd.pools[di]
			p.prof = pi.Profile
			p.queue = requestQueue{byDeadline: !in.FIFO}
			reps := pi.Replicas
			if a := &opt.Autoscaler; a.Enabled {
				reps = min(max(reps, a.MinReplicas), a.MaxReplicas)
				p.depthWin = make([]float64, a.Window)
				p.doneWin = make([]int, a.Window)
				p.metWin = make([]int, a.Window)
			}
			for rp := 0; rp < reps; rp++ {
				p.idle.Push(rp)
			}
			p.live, p.target, p.next, p.peak = reps, reps, reps, reps
		}
	}

	// Seed streams: one per tenant for arrivals, then the router stream,
	// then one affinity draw per tenant — all splitmix64-separated from
	// Options.Seed so adding tenants never perturbs earlier streams. The
	// router streams are drawn only for the policies that read them.
	nt := len(opt.Tenants)
	for ti, t := range opt.Tenants {
		e.rngs[ti] = rand.New(rand.NewSource(stats.MixSeed(opt.Seed, ti)))
		if t.Rate > 0 {
			// Open-loop: pre-draw the whole Poisson arrival sequence.
			mean := units.Millis(1e3 / t.Rate)
			at := expMillis(e.rngs[ti], mean)
			for at < opt.Horizon {
				e.newRequest(ti, -1, at)
				at += expMillis(e.rngs[ti], mean)
			}
		} else {
			// Closed-loop: every client starts in think state.
			for c := 0; c < t.Clients; c++ {
				at := expMillis(e.rngs[ti], t.Think)
				if at < opt.Horizon {
					e.newRequest(ti, c, at)
				}
			}
		}
	}
	switch opt.Router {
	case RouterRandom:
		e.rng = rand.New(rand.NewSource(stats.MixSeed(opt.Seed, nt)))
	case RouterAffinity:
		e.aff = make([]int, nt)
		for ti := range e.aff {
			h := stats.MixSeed(opt.Seed, nt+1+ti)
			e.aff[ti] = int((uint64(h) >> 1) % uint64(len(e.nodes)))
		}
	}
	if opt.Autoscaler.Enabled {
		e.events.Push(opt.Autoscaler.Interval, cev{kind: evTick})
	}

	var makespan units.Millis
	for e.events.Len() > 0 {
		now, ev := e.events.Pop()
		e.popped++
		if now > makespan {
			makespan = now
		}
		switch ev.kind {
		case evArrive:
			if !e.admit(ev.req, now) {
				break
			}
			r := &e.reqs[ev.req]
			di := e.o.Tenants[r.tenant].Model
			ni := e.route(r.tenant, di)
			r.node = ni
			p := &e.nodes[ni].pools[di]
			p.touch(now)
			p.queue.Push(r.deadline, e.qseq, ev.req)
			e.qseq++
			e.depth++
			e.dispatch(ni, di, now)
		case evFree:
			r := &e.reqs[ev.req]
			di := e.o.Tenants[r.tenant].Model
			p := &e.nodes[r.node].pools[di]
			p.touch(now)
			if p.live > p.target {
				// A scale-down is pending: retire this replica instead of
				// returning it to the idle set.
				p.setLive(p.live-1, now)
				break
			}
			p.idle.Push(r.replica)
			e.dispatch(r.node, di, now)
		case evDone:
			r := &e.reqs[ev.req]
			r.state = stDone
			r.finish = now
			p := &e.nodes[r.node].pools[e.o.Tenants[r.tenant].Model]
			p.done++
			if r.finish <= r.deadline {
				p.met++
			}
			e.reissue(r.tenant, r.client, now)
		case evTick:
			e.tick(now)
		}
		e.recordDepth(now)
	}
	for i := range e.reqs {
		if st := e.reqs[i].state; st == stQueued || st == stRunning {
			return nil, fmt.Errorf("cluster: internal error: request %d ended in state %d", i, st)
		}
	}
	return &Outcome{Report: e.report(makespan), e: e}, nil
}
