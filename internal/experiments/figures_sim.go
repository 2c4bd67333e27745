package experiments

import (
	"fmt"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched/ios"
)

// SimOptions parameterizes the §V simulation sweeps.
type SimOptions struct {
	// Seeds is the number of random model instances per data point
	// (the paper uses 30).
	Seeds int
	// GPUs is M for the fixed-GPU sweeps (the paper uses 4).
	GPUs int
	// Window is the sliding-window size w (0 = default).
	Window int
	// Workers bounds the sweep worker pool: every (x, seed) cell of a
	// sweep is an independent task scheduled on up to Workers goroutines.
	// 0 selects GOMAXPROCS; 1 forces the serial reference path. Results
	// are merged in index order, so the figure is byte-identical at any
	// width (see internal/parallel and DESIGN.md §7).
	Workers int
	// IOSWorkers bounds how many independent IOS blocks each scheduler
	// invocation solves concurrently (ios.Options.Workers). Like Workers
	// it never changes a figure byte: blocks are merged in block order.
	// 0 or 1 solves serially.
	IOSWorkers int
}

// DefaultSim returns the paper's §V-A settings.
func DefaultSim() SimOptions { return SimOptions{Seeds: 30, GPUs: 4} }

func (o *SimOptions) fill() {
	if o.Seeds <= 0 {
		o.Seeds = 30
	}
	if o.GPUs <= 0 {
		o.GPUs = 4
	}
}

// Validate reports the first structural violation of the sweep options.
// Zero values are valid (they select the documented defaults).
func (o SimOptions) Validate() error {
	if o.Seeds < 0 || o.GPUs < 0 || o.Window < 0 || o.Workers < 0 || o.IOSWorkers < 0 {
		return fmt.Errorf("experiments: negative sim option: %+v", o)
	}
	return nil
}

// sweep runs all six algorithms over a family of random-DAG configurations
// and aggregates latencies per x value. cfgAt generates the model family
// at x; runAt supplies the scheduler configuration at x (Fig. 7 varies the
// GPU count along x, the other sweeps keep it fixed).
//
// Every (x, seed) cell is one task on the deterministic pool: it derives a
// private graph and cost model from its seed and returns the six algorithm
// latencies. The results are merged serially in (x, seed, algorithm) order
// — the exact accumulation order of the single-threaded loop — so the
// figure is byte-identical at any pool width.
func sweep(id, title, xlabel string, xs []float64,
	cfgAt func(x float64, seed int64) randdag.Config,
	runAt func(x float64) RunConfig,
	opt SimOptions) (Figure, error) {

	if err := opt.Validate(); err != nil {
		return Figure{}, err
	}
	opt.fill()
	samples, err := seedGrid(len(xs), opt.Seeds, opt.Workers, len(AllAlgorithms), func(i int, seed int64) ([]float64, error) {
		x := xs[i]
		g, err := randdag.Generate(cfgAt(x, seed))
		if err != nil {
			return nil, fmt.Errorf("%s: x=%g seed=%d: %w", id, x, seed, err)
		}
		m := cost.FromGraph(g, cost.DefaultContention())
		rc := runAt(x)
		lats := make([]float64, len(AllAlgorithms))
		for ai, a := range AllAlgorithms {
			res, err := Run(a, g, m, rc)
			if err != nil {
				return nil, fmt.Errorf("%s: %s x=%g seed=%d: %w", id, a, x, seed, err)
			}
			lats[ai] = float64(res.Latency)
		}
		return lats, nil
	})
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{ID: id, Title: title, XLabel: xlabel, YLabel: "latency_ms"}
	addSeries(&fig, AllAlgorithms, xs, samples)
	return fig, nil
}

// Fig7 reproduces Fig. 7: inference latency of the six scheduling
// algorithms as the number of GPUs grows from 2 to 12 (random 200-operator
// models, 14 layers, 400 dependencies, p = 0.8).
func Fig7(opt SimOptions) (Figure, error) {
	xs := []float64{2, 4, 6, 8, 10, 12}
	return sweep("Fig7", "latency vs number of GPUs", "gpus", xs,
		func(x float64, seed int64) randdag.Config {
			cfg := randdag.Paper()
			cfg.Seed = seed
			return cfg
		},
		func(x float64) RunConfig {
			return RunConfig{GPUs: int(x), Window: opt.Window, IOS: ios.Options{Workers: opt.IOSWorkers}}
		}, opt)
}

// Fig8 reproduces Fig. 8: latency vs number of operators (100..400 step
// 50, dependencies = 2x operators, 4 GPUs).
func Fig8(opt SimOptions) (Figure, error) {
	xs := []float64{100, 150, 200, 250, 300, 350, 400}
	return sweep("Fig8", "latency vs number of operators", "operators", xs,
		func(x float64, seed int64) randdag.Config {
			cfg := randdag.Paper()
			cfg.Ops = int(x)
			cfg.Deps = 2 * cfg.Ops
			cfg.Seed = seed
			return cfg
		}, fixedRun(opt), opt)
}

// Fig9 reproduces Fig. 9: latency vs number of inter-operator
// dependencies (400..600 step 50, 200 operators, 4 GPUs).
func Fig9(opt SimOptions) (Figure, error) {
	xs := []float64{400, 450, 500, 550, 600}
	return sweep("Fig9", "latency vs number of dependencies", "dependencies", xs,
		func(x float64, seed int64) randdag.Config {
			cfg := randdag.Paper()
			cfg.Deps = int(x)
			cfg.Seed = seed
			return cfg
		}, fixedRun(opt), opt)
}

// Fig10 reproduces Fig. 10: latency vs the number of operator layers
// (6..22 step 4), i.e. the degree of parallelism in the model.
func Fig10(opt SimOptions) (Figure, error) {
	xs := []float64{6, 10, 14, 18, 22}
	return sweep("Fig10", "latency vs number of layers", "layers", xs,
		func(x float64, seed int64) randdag.Config {
			cfg := randdag.Paper()
			cfg.Layers = int(x)
			cfg.Seed = seed
			return cfg
		}, fixedRun(opt), opt)
}

// Fig11 reproduces Fig. 11: latency vs the communication/computation time
// ratio p (0.4..1.2 step 0.2).
func Fig11(opt SimOptions) (Figure, error) {
	xs := []float64{0.4, 0.6, 0.8, 1.0, 1.2}
	return sweep("Fig11", "latency vs communication ratio p", "p", xs,
		func(x float64, seed int64) randdag.Config {
			cfg := randdag.Paper()
			cfg.CommRatio = x
			cfg.Seed = seed
			return cfg
		}, fixedRun(opt), opt)
}

func fixedRun(opt SimOptions) func(float64) RunConfig {
	opt.fill()
	return func(float64) RunConfig {
		return RunConfig{GPUs: opt.GPUs, Window: opt.Window, IOS: ios.Options{Workers: opt.IOSWorkers}}
	}
}

// Fig9DependencyBound re-runs the Fig. 9 sweep on a dependency-bound
// instance family: the extra dependencies connect adjacent layers only
// (concentrated fan-in), so operators genuinely wait on many
// previous-layer finishes plus transfers. On this family — unlike the
// §V-A uniform family, which our schedulers drive to the load bound —
// the paper's declining-speedup trend reappears. See EXPERIMENTS.md.
func Fig9DependencyBound(opt SimOptions) (Figure, error) {
	xs := []float64{400, 450, 500, 550, 600}
	return sweep("Fig9-adjacent", "latency vs dependencies (adjacent-layer fan-in)", "dependencies", xs,
		func(x float64, seed int64) randdag.Config {
			cfg := randdag.Paper()
			cfg.Deps = int(x)
			cfg.Seed = seed
			cfg.AdjacentOnly = true
			return cfg
		}, fixedRun(opt), opt)
}
