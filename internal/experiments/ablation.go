package experiments

import (
	"fmt"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/ios"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/window"
	"github.com/shus-lab/hios/internal/sim"
	"github.com/shus-lab/hios/internal/units"
)

// This file holds the ablation studies DESIGN.md calls out: sweeps over
// the design parameters the paper fixes (window size w, IOS pruning) and
// over the implementation choices the paper only discusses (per-message
// transfer overhead, the §VI-E NCCL remark). They are exposed through
// cmd/hios-exp -fig ablation and bench_test.go.

// AblationWindow sweeps the intra-GPU sliding-window size w for HIOS-LP
// on random models: w = 1 disables Algorithm 2 entirely (the
// "inter-GPU w/ LP" curve), larger windows admit wider concurrent stages
// at higher scheduling cost. Any w >= 2 improves on w = 1 because the
// pass only commits improvements; across different w the sweep is not
// strictly monotone (the pass is greedy — an early wide fusion can
// foreclose a better pair of narrow ones), which is itself a finding
// worth having on record.
func AblationWindow(opt SimOptions) (Figure, error) {
	fig := Figure{ID: "AblationWindow", Title: "HIOS-LP latency vs sliding-window size w", XLabel: "window", YLabel: "latency_ms"}
	return paramSweep(fig, AlgoHIOSLP, []float64{1, 2, 3, 4, 6, 8}, opt, func(g *graph.Graph, m cost.Model, w int) (sched.Result, error) {
		return lp.Schedule(g, m, lp.Options{GPUs: opt.GPUs, Window: w, InterOnly: w == 1})
	})
}

// AblationIOSPruning sweeps IOS's schedule-pruning aggressiveness (the
// prune-window r) on random models, reporting both the achieved latency
// and how close narrow pruning stays to the widest setting — the
// latency/scheduling-cost trade-off of Ding et al.'s pruning strategy.
func AblationIOSPruning(opt SimOptions) (Figure, error) {
	fig := Figure{ID: "AblationIOSPruning", Title: "IOS latency vs prune-window r", XLabel: "prune_window", YLabel: "latency_ms"}
	return paramSweep(fig, AlgoIOS, []float64{2, 4, 6, 8, 10}, opt, func(g *graph.Graph, m cost.Model, r int) (sched.Result, error) {
		return ios.Schedule(g, m, ios.Options{PruneWindow: r})
	})
}

// paramSweep fills fig with one series, label, of the mean latency run
// achieves at each parameter value in xs over opt.Seeds paper-default
// random models.
func paramSweep(fig Figure, label string, xs []float64, opt SimOptions,
	run func(g *graph.Graph, m cost.Model, x int) (sched.Result, error)) (Figure, error) {
	opt.fill()
	samples, err := seedGrid(1, opt.Seeds, opt.Workers, len(xs), func(_ int, seed int64) ([]float64, error) {
		g, m, err := paperModel(seed)
		if err != nil {
			return nil, err
		}
		lats := make([]float64, len(xs))
		for i, x := range xs {
			res, err := run(g, m, int(x))
			if err != nil {
				return nil, fmt.Errorf("%s %s=%g seed=%d: %w", fig.ID, fig.XLabel, x, seed, err)
			}
			lats[i] = float64(res.Latency)
		}
		return lats, nil
	})
	if err != nil {
		return Figure{}, err
	}
	fig.Series = []Series{collect(label, xs, firstPoint(samples))}
	return fig, nil
}

// AblationLinkContention quantifies how much of the measured latency of
// each multi-GPU scheduler is due to transfers contending for the single
// NVLink bridge: the same schedules are simulated with independent
// (cost-model-ideal) links and with the bridge serialized. HIOS-MR's
// scattered placements suffer more, which is the mechanism behind the
// paper's observed HIOS-LP > HIOS-MR gap on real hardware (§VI-D).
func AblationLinkContention(b Benchmark, size int) (Figure, error) {
	plat := gpu.DualA40()
	net, err := BuildBenchmark(b, plat, size)
	if err != nil {
		return Figure{}, err
	}
	m := cost.FromGraph(net.G, cost.DefaultContention())
	fig := Figure{
		ID:     "AblationLinkContention",
		Title:  fmt.Sprintf("link-contention penalty on %s@%d", b, size),
		XLabel: "serialized",
		YLabel: "latency_ms",
	}
	for _, a := range []string{AlgoHIOSLP, AlgoHIOSMR, AlgoInterLP, AlgoInterMR} {
		res, err := Run(a, net.G, m, RunConfig{GPUs: plat.GPUs})
		if err != nil {
			return Figure{}, err
		}
		s := Series{Label: a}
		for i, serialize := range []bool{false, true} {
			tr, err := sim.RunOpts(net.G, m, res.Schedule, sim.Options{SerializeLinks: serialize})
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, Point{X: float64(i), Mean: float64(tr.Latency)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// NCCLOverlap is the §VI-E what-if: the paper suggests that replacing
// CUDA-aware MPI with NCCL could hide the launch latency of kernels that
// wait on inter-GPU transfers. We model NCCL as the same wire with
// (near-)zero software latency and re-measure Fig. 12's NASNet small-input
// case, where the paper observed HIOS-LP losing 5.4% to IOS because of
// exactly this overhead.
func NCCLOverlap(b Benchmark, size int) (Figure, error) {
	fig := Figure{
		ID:     "NCCLOverlap",
		Title:  fmt.Sprintf("MPI vs NCCL-style transfers on %s@%d", b, size),
		XLabel: "transport", // 0 = CUDA-aware MPI, 1 = NCCL-style
		YLabel: "latency_ms",
	}
	for i, link := range []gpu.Link{gpu.NVLinkBridge(), ncclLink()} {
		plat := gpu.DualA40()
		plat.Link = link
		net, err := BuildBenchmark(b, plat, size)
		if err != nil {
			return Figure{}, err
		}
		m := cost.FromGraph(net.G, cost.DefaultContention())
		for _, a := range []string{AlgoIOS, AlgoHIOSLP} {
			lat, err := measure(a, net, m, plat.GPUs)
			if err != nil {
				return Figure{}, err
			}
			found := false
			for j := range fig.Series {
				if fig.Series[j].Label == a {
					fig.Series[j].Points = append(fig.Series[j].Points, Point{X: float64(i), Mean: lat})
					found = true
				}
			}
			if !found {
				fig.Series = append(fig.Series, Series{Label: a, Points: []Point{{X: float64(i), Mean: lat}}})
			}
		}
	}
	return fig, nil
}

// paperModel generates the §V-A paper-default random model of a seed
// with its default-contention cost model.
func paperModel(seed int64) (*graph.Graph, cost.Model, error) {
	cfg := randdag.Paper()
	cfg.Seed = seed
	g, err := randdag.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	return g, cost.FromGraph(g, cost.DefaultContention()), nil
}

// ncclLink models an NVLink bridge driven by NCCL: the same bandwidth
// with the MPI software latency almost eliminated (launch hiding).
func ncclLink() gpu.Link {
	l := gpu.NVLinkBridge()
	l.Name = "NVLink bridge (NCCL-style)"
	l.Latency = units.Millis(0.002)
	return l
}

// AblationIntraGPU contrasts the paper's sliding-window pass (Algorithm
// 2) with the counterfactual it argues against in §IV-B: running the
// exact IOS dynamic program independently per GPU, blind to cross-GPU
// dependencies. Both start from the same inter-GPU LP placement. The
// figure reports mean latency for three intra-GPU strategies: none
// (inter-GPU only), Algorithm 2, and per-GPU IOS.
func AblationIntraGPU(opt SimOptions) (Figure, error) {
	opt.fill()
	fig := Figure{
		ID:     "AblationIntraGPU",
		Title:  "intra-GPU strategy on top of inter-GPU LP",
		XLabel: "strategy", // 0 = none, 1 = Algorithm 2, 2 = per-GPU IOS
		YLabel: "latency_ms",
	}
	labels := []string{"none", "algorithm-2", "per-gpu-ios"}
	samples, err := seedGrid(1, opt.Seeds, opt.Workers, len(labels), func(_ int, seed int64) ([]float64, error) {
		g, m, err := paperModel(seed)
		if err != nil {
			return nil, err
		}
		inter, err := lp.Schedule(g, m, lp.Options{GPUs: opt.GPUs, InterOnly: true})
		if err != nil {
			return nil, err
		}
		alg2, err := window.Parallelize(g, m, inter.Schedule, window.DefaultSize)
		if err != nil {
			return nil, err
		}
		perGPU, err := window.ExactPerGPU(g, m, inter.Schedule, ios.Options{})
		if err != nil {
			return nil, err
		}
		return []float64{float64(inter.Latency), float64(alg2.Latency), float64(perGPU.Latency)}, nil
	})
	if err != nil {
		return Figure{}, err
	}
	for i, l := range labels {
		fig.Series = append(fig.Series, Series{
			Label:  l,
			Points: []Point{{X: float64(i), Mean: samples[i][0].Mean(), Std: samples[i][0].Std()}},
		})
	}
	return fig, nil
}
