// Command perfbench is the repository's end-to-end benchmark. It drives
// one named workload through the hios facade from a single process, one
// request at a time (a single closed-loop client), checks every output
// against an independent oracle, and prints every metric by name with its
// unit and better direction; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload paper-dags --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs. With
// --trace 1 it runs every section once traced and once untraced, reports
// the per-layer metrics and the tracing overhead, prints the self-time
// table to standard error and writes the spans under .bench_build/.
// spec.json beside this file records the workloads, the metrics, the
// layer-to-metric predictions and the values that must repeat exactly.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"github.com/shus-lab/hios/internal/stats"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// outDir holds the span dumps and the determinism records, relative to
// the directory the benchmark runs from.
const outDir = ".bench_build/perfbench-out"

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: paper-dags, cnn-zoo or fleet-serving")
	seed := flag.Int64("seed", 1, "seed all inputs are generated from")
	seconds := flag.Float64("seconds", 25, "time budget of the timed phase, in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	var w workload
	for _, cand := range workloads {
		if cand.name == *name {
			w = cand
		}
	}
	if w.name == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		return 2
	}
	traced := *traceFlag == 1
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	b := &bench{tr: newTracer()}
	b.tr.on = traced
	var setups []float64
	var in *inputs
	for range setupReps {
		// Start each repetition from a collected heap, so the previous
		// one's inputs and garbage add to neither its time nor the peak
		// memory.
		in = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		in, err = b.setup(w, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	secs := b.sections(in)
	focus, other := secs[w.focus], secs[sectionServe]
	if w.focus == sectionServe {
		other = secs[sectionSched]
	}
	runtime.GC()
	var ms []metric
	var err error
	if traced {
		ms, err = b.tracedRun(w.name, in, focus, other, *seed)
	} else {
		interleave(focus, other, time.Now().Add(time.Duration(*seconds*float64(time.Second))))
		ms, err = b.endToEnd(setups)
	}
	if err == nil {
		err = b.checkDeterminism(w.name, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d %s and %d %s passes, %d attempted, %d failed\n",
		w.name, *seed, focus.passes, focus.name, other.passes, other.name, b.attempted, b.failed)
	if err := report(os.Stdout, ms, b.attempted, b.failed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.failed > 0 {
		return 1
	}
	return 0
}

// tracedRun runs the other section's control passes and the focus
// section's minimum passes traced, then again untraced, and returns the
// per-layer metrics.
func (b *bench) tracedRun(name string, in *inputs, focus, other *section, seed int64) ([]metric, error) {
	t0 := time.Now()
	other.run(other.control)
	focus.run(focus.min)
	tracedWall := time.Since(t0)

	b.tr.on = false
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	other.run(other.control)
	focus.run(focus.min)
	untracedWall := time.Since(t1)
	runtime.ReadMemStats(&m1)

	writeSelfTimes(os.Stderr, b.tr.selfTimes())
	if err := b.tr.dump(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))); err != nil {
		return nil, err
	}
	ms, err := b.perLayer(in)
	ms = append(ms,
		metric{"gc.cycles", "count", lower, float64(m1.NumGC - m0.NumGC), 0},
		metric{"gc.pause_ms", "ms", lower, float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, 0},
		metric{"trace_overhead_frac", "frac", lower, tracedWall.Seconds()/untracedWall.Seconds() - 1, 0},
		metric{"failed_frac", "frac", lower, float64(b.failed) / float64(b.attempted), 0},
	)
	return ms, err
}

const (
	lower  = "lower"
	higher = "higher"
)

// metric is one reported value; n is its sample count where it
// summarizes samples.
type metric struct {
	name, unit, better string
	value              float64
	n                  int
}

// percentile returns the nearest-rank p-th percentile of xs, refusing
// when fewer than ten samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n-rank < 10 {
		return 0, fmt.Errorf("refusing p%g of %d samples: %d lie beyond it, want 10", p, n, n-rank)
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return stats.Percentile(sorted, p), nil
}

// median is the interpolated median of a handful of run-level values.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentiles appends the named percentiles of xs, each as name.pP.
func percentiles(ms []metric, name, unit string, xs []float64, ps ...float64) ([]metric, error) {
	for _, p := range ps {
		v, err := percentile(xs, p)
		if err != nil {
			return ms, fmt.Errorf("%s.p%g: %w", name, p, err)
		}
		ms = append(ms, metric{fmt.Sprintf("%s.p%g", name, p), unit, lower, v, len(xs)})
	}
	return ms, nil
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (b *bench) endToEnd(setups []float64) ([]metric, error) {
	ms := []metric{{"setup_s", "s", lower, median(setups), len(setups)}}
	var err error
	for i, algo := range algos {
		if ms, err = percentiles(ms, string(algo)+".sched_ms", "ms", b.schedMs[i], 50, 90); err != nil {
			return nil, err
		}
	}
	n := b.first.Sched.Requests
	for i, algo := range algos {
		ms = append(ms, metric{string(algo) + ".latency_ms.geomean", "ms", lower, math.Exp(b.first.Sched.LogLatency[i] / float64(n)), n})
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	ms = append(ms,
		metric{"serve.req_per_s", "1/s", higher, float64(b.offered[0]) / b.host[0].Seconds(), 0},
		metric{"cluster.req_per_s", "1/s", higher, float64(b.offered[1]) / b.host[1].Seconds(), 0},
		metric{"max_rss_mb", "MB", lower, float64(ru.Maxrss) / 1024, 0},
	)
	return ms, nil
}

// perLayer computes the per-layer metrics of a traced run.
func (b *bench) perLayer(in *inputs) ([]metric, error) {
	tr := b.tr
	var ms []metric
	var err error
	meanAllocs := func(span string) float64 {
		total, calls := tr.allocs(span)
		return float64(total) / float64(max(calls, 1))
	}
	for _, l := range []struct{ span, name string }{{"lp.map", "lp.map"}, {"mr.map", "mr.map"}} {
		if ms, err = percentiles(ms, l.name+"_ms", "ms", tr.durations(l.span), 50, 90); err != nil {
			return nil, err
		}
		ms = append(ms, metric{l.name + ".allocs", "count", lower, meanAllocs(l.span), 0})
	}
	if ms, err = percentiles(ms, "window.pass_ms", "ms", tr.durations("window.pass"), 50, 90); err != nil {
		return nil, err
	}
	sw := b.first.Sched
	ms = append(ms, metric{"window.gain_frac", "frac", higher, sw.Gain / float64(max(sw.Windows, 1)), sw.Windows})
	for _, l := range []struct{ span, name string }{
		{"graph.priority", "graph.priority_ms"},
		{"graph.paths", "graph.paths_ms"},
		{"sched.evaluate", "sched.evaluate_ms"},
	} {
		if ms, err = percentiles(ms, l.name, "ms", tr.durations(l.span), 50); err != nil {
			return nil, err
		}
	}
	c := b.first.Cache
	ms = append(ms,
		metric{"sched.evaluate.allocs", "count", lower, meanAllocs("sched.evaluate"), 0},
		metric{"ios.blocks", "count", lower, float64(sw.Blocks), 0},
		metric{"ios.block_ops.max", "count", lower, float64(sw.BlockOpsMax), 0},
		metric{"ios.allocs", "count", lower, meanAllocs(string(algos[0])), 0},
		metric{"dpcache.hits", "count", higher, float64(c.DPHits), 0},
		metric{"dpcache.misses", "count", lower, float64(c.DPMisses), 0},
		metric{"dpcache.hit_ratio", "frac", higher, ratio(c.DPHits, c.DPHits+c.DPMisses), 0},
		metric{"dpcache.entries", "count", lower, float64(c.DPEntries), 0},
		metric{"costcache.stage_hits", "count", higher, float64(c.StageHits), 0},
		metric{"costcache.stage_misses", "count", lower, float64(c.StageMisses), 0},
		metric{"costcache.kernel_misses", "count", lower, float64(c.KernelMisses), 0},
		metric{"costcache.stage_hit_ratio", "frac", higher, ratio(c.StageHits, c.StageHits+c.StageMisses), 0},
	)
	if ms, err = percentiles(ms, "model.build_ms", "ms", tr.durations("model.build"), 50); err != nil {
		return nil, err
	}
	ms = append(ms,
		metric{"model.build.allocs", "count", lower, meanAllocs("model.build"), 0},
		metric{"profile.probes", "count", lower, float64(sw.Probes), 0},
		metric{"profile.stage_probes", "count", lower, float64(sw.StageProbes), 0},
		metric{"profile.simulated_ms", "ms", lower, sw.ProfileMs, 0},
	)
	for _, l := range []string{"sim.run", "pipeline.analyze", "memory.analyze", "trace.export", "serve.run"} {
		if ms, err = percentiles(ms, l+"_ms", "ms", tr.durations(l), 50); err != nil {
			return nil, err
		}
	}
	sv := b.first.Serve
	servePasses := len(tr.durations("serve.run")) / max(len(in.serve), 1)
	serveAllocs, _ := tr.allocs("serve.run")
	clusterAllocs, clusterRuns := tr.allocs("cluster.run")
	clusterPasses := clusterRuns / max(len(in.cluster), 1)
	var clusterMs float64
	for _, d := range tr.durations("cluster.run") {
		clusterMs += d
	}
	ms = append(ms,
		metric{"serve.offered", "count", higher, float64(sv.ServeOffered), 0},
		metric{"serve.shed_frac", "frac", lower, ratio(int64(sv.ServeShed), int64(sv.ServeOffered)), 0},
		metric{"serve.attainment", "frac", higher, ratio(int64(sv.ServeMet), int64(sv.ServeOffered)), 0},
		metric{"serve.allocs_per_req", "count", lower, float64(serveAllocs) / float64(max(sv.ServeOffered*servePasses, 1)), 0},
		metric{"cluster.events", "count", higher, float64(sv.Events), 0},
		metric{"cluster.events_per_s", "1/s", higher, float64(sv.Events) * float64(clusterPasses) / (clusterMs / 1e3), 0},
		metric{"cluster.shed_frac", "frac", lower, ratio(int64(sv.ClusterShed), int64(sv.ClusterOffered)), 0},
		metric{"cluster.scale_events", "count", lower, float64(sv.ScaleEvents), 0},
		metric{"cluster.attainment", "frac", higher, ratio(int64(sv.ClusterMet), int64(sv.ClusterOffered)), 0},
		metric{"cluster.allocs_per_req", "count", lower, float64(clusterAllocs) / float64(max(sv.ClusterOffered*clusterPasses, 1)), 0},
	)
	return ms, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkDeterminism compares the run's exact values with those an earlier
// run of the same binary recorded for the same workload and seed, traced
// or not, and records them when no earlier run did.
func (b *bench) checkDeterminism(workload string, seed int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(outDir, "determinism", fmt.Sprintf("%s-seed%d-%s.json", workload, seed, hex.EncodeToString(sum[:8])))
	got, err := json.MarshalIndent(b.first, "", "  ")
	if err != nil {
		return err
	}
	if prev, err := os.ReadFile(path); err == nil {
		b.check(string(prev) == string(got), "exact values differ from the earlier run recorded in %s", path)
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, got, 0o644)
}

// report prints one line per metric, then the JSON result line.
func report(w io.Writer, ms []metric, attempted, failed int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]value{}}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %g", m.name, m.value)
		}
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf("  n=%d", m.n)
		}
		fmt.Fprintf(w, "%-28s %18.6f %-6s %s is better%s\n", m.name, m.value, m.unit, m.better, samples)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
