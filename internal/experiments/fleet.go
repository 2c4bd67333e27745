package experiments

import (
	"fmt"

	"github.com/shus-lab/hios/internal/cluster"
	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/model"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/serve"
	"github.com/shus-lab/hios/internal/units"
)

// FleetSweepOptions parameterizes the cluster-serving attainment sweep
// (figure Serve2). The zero value of every field selects a documented
// default; Validate reports structural violations.
type FleetSweepOptions struct {
	// Seeds is the number of independent arrival traces averaged per
	// data point (0 = 4).
	Seeds int
	// Sizes are the fleet sizes (node counts) on the x axis (nil = 2, 4,
	// 8, 12). Each fleet cycles the platform presets — a40, a5500,
	// v100s, a40, ... — so every size above 2 is heterogeneous.
	Sizes []int
	// Routers are the gateway policies compared as series (nil = every
	// registered policy).
	Routers []cluster.RouterPolicy
	// Requests is the target arrival count per cell; the horizon is
	// derived from it and the offered rate. Every admitted open-loop
	// request is exactly three events (arrive, done, free), so the
	// default 350000 arrivals put ≥ 1e6 events in every cell (0 =
	// 350000).
	Requests int
	// Load is the offered load as a fraction of each fleet's aggregate
	// capacity at its initial replica counts (0 = 0.95) — near
	// saturation, where routing quality decides attainment.
	Load float64
	// Replicas is the initial replica count of every (node, deployment)
	// pool (0 = 2).
	Replicas int
	// GPUs is M, the devices one pipeline replica spans (0 = 2).
	GPUs int
	// Window is the sliding-window size w of the scheduler (0 =
	// default).
	Window int
	// InputSize is the benchmark model's input image size (0 = its
	// default, 224; tests shrink it to keep schedule construction
	// fast).
	InputSize int
	// Workers bounds the sweep's worker pool (0 = GOMAXPROCS, 1 =
	// serial reference; output is byte-identical at any width).
	Workers int
}

func (o *FleetSweepOptions) fill() {
	if o.Seeds <= 0 {
		o.Seeds = 4
	}
	if len(o.Sizes) == 0 {
		o.Sizes = []int{2, 4, 8, 12}
	}
	if len(o.Routers) == 0 {
		o.Routers = cluster.RouterPolicies()
	}
	if o.Requests <= 0 {
		o.Requests = 350000
	}
	if o.Load <= 0 {
		o.Load = 0.95
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.GPUs <= 0 {
		o.GPUs = 2
	}
}

// Validate reports the first structural violation of the sweep options.
// Zero values are valid (defaults); negatives, zero fleet sizes and
// unknown router policies are not.
func (o FleetSweepOptions) Validate() error {
	if o.Seeds < 0 || o.Requests < 0 || o.Replicas < 0 || o.GPUs < 0 || o.Window < 0 || o.InputSize < 0 || o.Workers < 0 {
		return fmt.Errorf("experiments: negative fleet-sweep option: %+v", o)
	}
	if o.Load < 0 {
		return fmt.Errorf("experiments: negative fleet-sweep load %g", o.Load)
	}
	for i, n := range o.Sizes {
		if n <= 0 {
			return fmt.Errorf("experiments: fleet size %d is %d, want > 0", i, n)
		}
	}
	for _, r := range o.Routers {
		if !cluster.RouterRegistry.Valid(r) {
			return fmt.Errorf("experiments: %w %q", cluster.ErrUnknownRouterPolicy, string(r))
		}
	}
	return nil
}

// FleetDeployment schedules the named zoo model (at an input size, 0 =
// its default) once per platform preset with algo and converts each
// schedule into that platform's cluster serving profile: the same
// deployment runs with genuinely different latency and period on each
// platform, which is what gives the weighted router a real
// cost/latency tradeoff.
func FleetDeployment(name string, size int, algo string, cfg RunConfig) (cluster.Deployment, error) {
	dep := cluster.Deployment{Name: name}
	for _, p := range cluster.Presets() {
		net, err := model.Build(p.Platform, name, size, randdag.Paper())
		if err != nil {
			return dep, err
		}
		cm := net.CachedModel(cost.DefaultContention())
		res, err := Run(algo, net.G, cm, cfg)
		if err != nil {
			return dep, fmt.Errorf("%s: %w", p.Key, err)
		}
		sm, err := serve.NewModel(net.Name, net.G, cm, res.Schedule)
		if err != nil {
			return dep, fmt.Errorf("%s: %w", p.Key, err)
		}
		dep.Profiles = append(dep.Profiles, serve.ProfileOf(p.Key, sm))
	}
	return dep, nil
}

// PresetFleet builds the n-node heterogeneous fleet of figure Serve2:
// node i runs platform preset i mod len(Presets) with the given initial
// replicas.
func PresetFleet(n, replicas int) cluster.FleetSpec {
	keys := cluster.PresetKeys()
	nodes := make([]cluster.NodeSpec, n)
	for i := 0; i < n; i++ {
		nodes[i] = cluster.NodeSpec{Platform: keys[i%len(keys)], Count: 1, Replicas: replicas}
	}
	return cluster.FleetSpec{Nodes: nodes}
}

// AttainmentVsFleet is the cluster counterpart of AttainmentVsLoad
// (figure Serve2): SLO attainment versus fleet size for every router
// policy. One benchmark model is scheduled per platform preset with
// HIOS-LP; each fleet size cycles the presets into a heterogeneous
// fleet serving two open-loop tenants — interactive (tight SLO, 60% of
// traffic) and batch (loose SLO, 40%) — offered at a fixed fraction of
// that fleet's aggregate capacity, so the x axis isolates how well each
// router converts added heterogeneous nodes into met deadlines.
//
// Every (size, seed) cell is one task on the deterministic pool running
// all routers on the same seeded trace, and the merge is index-ordered,
// so the figure is byte-identical at any Workers width.
func AttainmentVsFleet(opt FleetSweepOptions) (Figure, error) {
	if err := opt.Validate(); err != nil {
		return Figure{}, err
	}
	opt.fill()

	dep, err := FleetDeployment("squeezenet", opt.InputSize, AlgoHIOSLP, RunConfig{GPUs: opt.GPUs, Window: opt.Window})
	if err != nil {
		return Figure{}, fmt.Errorf("AttainmentVsFleet: %w", err)
	}

	samples, err := seedGrid(len(opt.Sizes), opt.Seeds, opt.Workers, len(opt.Routers), func(i int, seed int64) ([]float64, error) {
		base := cluster.Options{
			Fleet:       PresetFleet(opt.Sizes[i], opt.Replicas),
			Deployments: []cluster.Deployment{dep},
			Seed:        seed,
		}
		rate := opt.Load * base.Capacity(0)
		base.Horizon = units.Millis(float64(opt.Requests) * 1e3 / rate)
		base.Tenants = cluster.TenantMix(dep.MinLatency(), rate)
		atts := make([]float64, 0, len(opt.Routers))
		for _, router := range opt.Routers {
			o := base
			o.Router = router
			rep, err := cluster.Run(o)
			if err != nil {
				return nil, fmt.Errorf("AttainmentVsFleet: %s size=%d seed=%d: %w",
					router, opt.Sizes[i], seed, err)
			}
			atts = append(atts, rep.Attainment)
		}
		return atts, nil
	})
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "Serve2",
		Title:  "SLO attainment vs fleet size (router policy)",
		XLabel: "fleet_nodes",
		YLabel: "slo_attainment",
	}
	addSeries(&fig, opt.Routers, floats(opt.Sizes), samples)
	return fig, nil
}
