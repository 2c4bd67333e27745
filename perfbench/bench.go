package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/shus-lab/hios"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/ios"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/mr"
	"github.com/shus-lab/hios/internal/sched/window"
	"github.com/shus-lab/hios/internal/stats"
)

// algos are the timed schedulers, in metric order.
var algos = [3]hios.Algorithm{hios.IOS, hios.HIOSLP, hios.HIOSMR}

// bench holds one run's measurements.
type bench struct {
	tr *tracer
	// attempted counts operations (scheduler, serve and cluster calls)
	// and correctness checks; failed counts those that erred or failed.
	attempted, failed int
	// schedMs holds the host time of every hios.Optimize call, per
	// algorithm, over every scheduling pass.
	schedMs [3][]float64
	// offered and host total the simulated requests and the host time of
	// every serve (index 0) and cluster (index 1) run.
	offered [2]int
	host    [2]time.Duration
	// first holds the deterministic values of the first pass of each
	// section; later passes must reproduce them.
	first determinism
}

// schedWork is the deterministic outcome of one scheduling pass.
type schedWork struct {
	Requests    int
	LogLatency  [3]float64 // sum of ln(latency ms) per algorithm
	Blocks      int        // IOS blocks over all requests
	BlockOpsMax int        // operators in the largest IOS block
	Probes      int        // Profiled-table probes, all kinds
	StageProbes int        // Profiled-table stage probes
	ProfileMs   float64    // simulated profiling time of those probes
	Gain        float64    // sum of the window pass's latency cut fractions
	Windows     int        // window passes
}

// serveWork is the deterministic outcome of one serving pass.
type serveWork struct {
	ServeOffered, ServeCompleted, ServeMet, ServeShed         int
	ClusterOffered, ClusterCompleted, ClusterMet, ClusterShed int
	Events                                                    int64
	ScaleEvents                                               int
}

// cacheWork is the shared caches' activity over the first scheduling
// pass.
type cacheWork struct {
	DPHits, DPMisses                     int64
	DPEntries                            int
	StageHits, StageMisses, KernelMisses int64
}

// determinism is every value that must repeat exactly across two runs
// with the same seed.
type determinism struct {
	Sched schedWork
	Serve serveWork
	Cache cacheWork
}

// op counts one operation and reports whether it succeeded.
func (b *bench) op(err error, what string) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return false
	}
	return true
}

// check counts one correctness check.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// schedule runs one request: the three timed hios.Optimize calls, then
// the HIOS-LP and HIOS-MR compositions split from outside, the
// correctness oracles and the post-processing hios-sched does.
func (b *bench) schedule(r *schedReq, w *schedWork) {
	b.tr.request(r.name)
	root := b.tr.begin("request")
	defer b.tr.end(root)
	w.Requests++

	base := hios.DefaultCostModel(r.g)
	if r.pricing == priceCached {
		m, err := hios.CachedCostModel(r.net)
		if !b.op(err, r.name) {
			return
		}
		base = m
	}
	var res [3]hios.Result
	for i, algo := range algos {
		m := base
		var tab *hios.ProfiledModel
		if r.pricing == priceProfiled {
			tab = hios.Profiled(base, 0, 0)
			m = tab
		}
		sp := b.tr.begin(string(algo))
		t0 := time.Now()
		out, err := hios.Optimize(r.g, m, algo, hios.Options{GPUs: r.gpus})
		dt := time.Since(t0)
		b.tr.end(sp)
		if !b.op(err, fmt.Sprintf("%s %s", r.name, algo)) {
			return
		}
		b.schedMs[i] = append(b.schedMs[i], float64(dt.Nanoseconds())/1e6)
		w.LogLatency[i] += math.Log(float64(out.Latency))
		if tab != nil {
			st := tab.Stats()
			w.Probes += st.Probes()
			w.StageProbes += st.StageProbes
			w.ProfileMs += float64(st.SimulatedMs)
		}
		res[i] = out
	}

	for _, blk := range ios.Blocks(r.g) {
		w.Blocks++
		w.BlockOpsMax = max(w.BlockOpsMax, len(blk))
	}

	// The graph-layer primitives HIOS-LP is built on.
	sp := b.tr.begin("graph.priority")
	r.g.PriorityIndicators()
	b.tr.end(sp)
	all := make([]bool, r.g.NumOps())
	for i := range all {
		all[i] = true
	}
	sp = b.tr.begin("graph.paths")
	r.g.LongestValidPath(all)
	b.tr.end(sp)

	// HIOS-LP and HIOS-MR split into their inter-GPU mapping and the
	// sliding-window pass; the composition must equal Optimize.
	for i, algo := range algos[1:] {
		b.split(r, base, algo, res[i+1], w)
	}

	for i, algo := range algos {
		b.oracles(r, base, algo, res[i])
	}

	// Post-processing of the HIOS-LP schedule, as hios-sched does it.
	s := res[1].Schedule
	sp = b.tr.begin("memory.analyze")
	_, err := hios.AnalyzeMemory(r.g, base, s)
	b.tr.end(sp)
	b.op(err, r.name+" memory")
	sp = b.tr.begin("pipeline.analyze")
	_, err = hios.AnalyzePipeline(r.g, base, s, 8)
	b.tr.end(sp)
	b.op(err, r.name+" pipeline")
	sp = b.tr.begin("trace.export")
	_, err = hios.ExportJSON(r.g, s, r.name, hios.HIOSLP, res[1].Latency)
	b.tr.end(sp)
	b.op(err, r.name+" export")
}

// split runs the inter-GPU mapping of algo alone, then the window pass,
// and checks the result against the Optimize schedule byte for byte and
// against the inter-only latency.
func (b *bench) split(r *schedReq, m hios.CostModel, algo hios.Algorithm, want hios.Result, w *schedWork) {
	var inter sched.Result
	var err error
	if algo == hios.HIOSLP {
		sp := b.tr.begin("lp.map")
		inter, err = lp.Schedule(r.g, m, lp.Options{GPUs: r.gpus, InterOnly: true})
		b.tr.end(sp)
	} else {
		sp := b.tr.begin("mr.map")
		inter, err = mr.Schedule(r.g, m, mr.Options{GPUs: r.gpus, InterOnly: true})
		b.tr.end(sp)
	}
	if !b.op(err, fmt.Sprintf("%s %s inter-only", r.name, algo)) {
		return
	}
	sp := b.tr.begin("window.pass")
	full, err := window.Parallelize(r.g, m, inter.Schedule, window.DefaultSize)
	b.tr.end(sp)
	if !b.op(err, fmt.Sprintf("%s %s window", r.name, algo)) {
		return
	}
	got, err1 := hios.ExportJSON(r.g, full.Schedule, r.name, algo, full.Latency)
	ref, err2 := hios.ExportJSON(r.g, want.Schedule, r.name, algo, want.Latency)
	b.check(err1 == nil && err2 == nil && bytes.Equal(got, ref), "%s %s: mapping + window pass differs from Optimize", r.name, algo)
	b.check(want.Latency <= inter.Latency, "%s %s: latency %g above inter-only %g", r.name, algo, float64(want.Latency), float64(inter.Latency))
	w.Gain += 1 - float64(full.Latency)/float64(inter.Latency)
	w.Windows++
}

// oracles checks one schedule: it is valid, and the evaluator's latency
// equals both the scheduler's and the discrete-event simulator's.
func (b *bench) oracles(r *schedReq, m hios.CostModel, algo hios.Algorithm, res hios.Result) {
	sp := b.tr.begin("sched.validate")
	err := sched.Validate(r.g, res.Schedule)
	b.tr.end(sp)
	b.check(err == nil, "%s %s: invalid schedule: %v", r.name, algo, err)
	sp = b.tr.begin("sched.evaluate")
	tm, err := hios.Evaluate(r.g, m, res.Schedule)
	b.tr.end(sp)
	if !b.op(err, fmt.Sprintf("%s %s evaluate", r.name, algo)) {
		return
	}
	sp = b.tr.begin("sim.run")
	st, err := hios.Simulate(r.g, m, res.Schedule, false)
	b.tr.end(sp)
	if !b.op(err, fmt.Sprintf("%s %s simulate", r.name, algo)) {
		return
	}
	b.check(stats.ApproxEqual(float64(tm.Latency), float64(res.Latency), 0), "%s %s: evaluated %g, reported %g", r.name, algo, float64(tm.Latency), float64(res.Latency))
	b.check(stats.ApproxEqual(float64(tm.Latency), float64(st.Latency), 0), "%s %s: evaluated %g, simulated %g", r.name, algo, float64(tm.Latency), float64(st.Latency))
}

// serveRun runs serving or cluster simulation i of a pass and adds its
// outcome to w.
func (b *bench) serveRun(in *inputs, i int, w *serveWork) {
	if i < len(in.serve) {
		b.tr.request(in.labels[i])
		sp := b.tr.begin("serve.run")
		t0 := time.Now()
		rep, err := hios.Serve(in.serve[i])
		b.host[0] += time.Since(t0)
		b.tr.end(sp)
		if !b.op(err, fmt.Sprintf("serve run %d", i)) {
			return
		}
		b.offered[0] += rep.Offered
		w.ServeOffered += rep.Offered
		w.ServeCompleted += rep.Completed
		w.ServeMet += rep.SLOMet
		w.ServeShed += rep.Shed
		b.check(rep.Offered == rep.Completed+rep.Shed, "serve run %d: offered %d != completed %d + shed %d", i, rep.Offered, rep.Completed, rep.Shed)
		b.check(rep.Attainment >= 0 && rep.Attainment <= 1, "serve run %d: attainment %g outside [0,1]", i, rep.Attainment)
		return
	}
	i -= len(in.serve)
	b.tr.request(in.labels[len(in.serve)+i])
	sp := b.tr.begin("cluster.run")
	t0 := time.Now()
	rep, err := hios.ClusterServe(in.cluster[i])
	b.host[1] += time.Since(t0)
	b.tr.end(sp)
	if !b.op(err, fmt.Sprintf("cluster run %d", i)) {
		return
	}
	b.offered[1] += rep.Offered
	w.ClusterOffered += rep.Offered
	w.ClusterCompleted += rep.Completed
	w.ClusterMet += rep.SLOMet
	w.ClusterShed += rep.Shed
	w.Events += rep.Events
	w.ScaleEvents += len(rep.Scales)
	b.check(rep.Offered == rep.Completed+rep.Shed, "cluster run %d: offered %d != completed %d + shed %d", i, rep.Offered, rep.Completed, rep.Shed)
	b.check(rep.Attainment >= 0 && rep.Attainment <= 1, "cluster run %d: attainment %g outside [0,1]", i, rep.Attainment)
}

// section is one kind of work run in passes. A unit is one scheduling
// request or one serving run; a pass runs every unit once.
type section struct {
	name  string
	units int
	// min is the passes a run makes at least when the section is the
	// workload's focus; control is the passes it makes when it is not.
	min, control int
	passes       int // passes completed
	next         int // next unit of the current pass
	start        func()
	unit         func(i int)
	finish       func(pass int)
}

// step runs the next unit and reports whether it completed a pass.
func (s *section) step() bool {
	if s.next == 0 {
		s.start()
	}
	s.unit(s.next)
	s.next++
	if s.next < s.units {
		return false
	}
	s.finish(s.passes)
	s.next = 0
	s.passes++
	return true
}

// run runs n whole passes.
func (s *section) run(n int) {
	for range n * s.units {
		s.step()
	}
}

// sections builds the scheduling and the serving section over the
// inputs. The run's first pass of each section is recorded; every later
// pass must reproduce it exactly.
func (b *bench) sections(in *inputs) map[string]*section {
	var sw schedWork
	var before statsPair
	sched := &section{
		name:    sectionSched,
		units:   len(in.sched),
		min:     1, // at least 100 requests
		control: 3,
		start: func() {
			if in.cold {
				hios.ResetSharedBlockCache()
			}
			before = snapshotCaches()
			sw = schedWork{}
		},
		unit: func(i int) { b.schedule(&in.sched[i], &sw) },
		finish: func(k int) {
			if k == 0 {
				b.first.Sched = sw
				b.first.Cache = cacheDelta(before, snapshotCaches())
				return
			}
			// Exact comparison: a pass over the same inputs must
			// reproduce every bit, floating-point sums included.
			b.check(sw == b.first.Sched, "scheduling pass %d differs from pass 0: %+v vs %+v", k, sw, b.first.Sched)
		},
	}
	var vw serveWork
	serve := &section{
		name:    sectionServe,
		units:   len(in.serve) + len(in.cluster),
		min:     10,
		control: 10,
		start:   func() { vw = serveWork{} },
		unit:    func(i int) { b.serveRun(in, i, &vw) },
		finish: func(k int) {
			if k == 0 {
				b.first.Serve = vw
				return
			}
			b.check(vw == b.first.Serve, "serving pass %d differs from pass 0: %+v vs %+v", k, vw, b.first.Serve)
		},
	}
	return map[string]*section{sectionSched: sched, sectionServe: serve}
}

// interleave runs the focus section's passes until the deadline, at least
// its minimum, starting another only if one as long as the last still
// fits. Between them it runs the other section's control passes, whole
// and spread evenly over the same time, so that both sections see the
// same share of the machine's slow and fast stretches.
func interleave(focus, other *section, deadline time.Time) {
	start := time.Now()
	budget := float64(deadline.Sub(start))
	var last time.Duration
	passStart := start
	for {
		for other.passes < other.control && float64(other.passes) <= float64(other.control)*float64(time.Since(start))/budget {
			other.run(1)
		}
		if !focus.step() {
			continue
		}
		now := time.Now()
		last, passStart = now.Sub(passStart), now
		if focus.passes >= focus.min && now.Add(last).After(deadline) {
			break
		}
	}
	other.run(other.control - other.passes)
}

// statsPair is a snapshot of both shared caches.
type statsPair struct {
	dp hios.BlockCacheStats
	kc hios.KernelCacheStats
}

func snapshotCaches() statsPair {
	return statsPair{hios.SharedBlockCacheStats(), hios.SharedKernelCacheStats()}
}

func cacheDelta(a, z statsPair) cacheWork {
	return cacheWork{
		DPHits:       z.dp.Hits - a.dp.Hits,
		DPMisses:     z.dp.Misses - a.dp.Misses,
		DPEntries:    z.dp.Blocks,
		StageHits:    z.kc.StageHits - a.kc.StageHits,
		StageMisses:  z.kc.StageMisses - a.kc.StageMisses,
		KernelMisses: z.kc.KernelMisses - a.kc.KernelMisses,
	}
}
