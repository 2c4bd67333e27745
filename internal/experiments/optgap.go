package experiments

import (
	"errors"
	"fmt"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched/bnb"
	"github.com/shus-lab/hios/internal/sched/lp"
	"github.com/shus-lab/hios/internal/sched/mr"
)

// OptimalityGap is a study the paper does not include but its claims
// invite: on graphs small enough for the exact branch-and-bound reference
// (package bnb), how far are HIOS-LP's and HIOS-MR's inter-GPU mappings
// from the optimal placement under the same temporal rule? The result is
// a figure with the mean latency ratio heuristic/optimal per GPU count
// (1.0 = always optimal).
func OptimalityGap(seeds, ops int) (Figure, error) {
	if ops <= 0 {
		ops = 18
	}
	if ops > bnb.MaxOps {
		return Figure{}, fmt.Errorf("experiments: %d ops exceeds the exact-search limit %d", ops, bnb.MaxOps)
	}
	if seeds <= 0 {
		seeds = 10
	}
	xs := []float64{2, 3, 4}
	fig := Figure{
		ID:     "OptimalityGap",
		Title:  fmt.Sprintf("heuristic/optimal latency ratio on %d-operator models", ops),
		XLabel: "gpus",
		YLabel: "latency ratio (1.0 = optimal)",
	}
	// One pool task per (gpu count, seed) cell; the exact branch-and-bound
	// reference dominates each task's cost, so the cells parallelize well.
	samples, err := seedGrid(len(xs), seeds, 0, 2, func(i int, seed int64) ([]float64, error) {
		gpus := int(xs[i])
		cfg := randdag.Paper()
		cfg.Ops = ops
		cfg.Layers = 4
		cfg.Deps = 2 * ops
		cfg.Seed = seed
		g, err := randdag.Generate(cfg)
		if err != nil {
			return nil, err
		}
		m := cost.FromGraph(g, cost.DefaultContention())
		opt, err := bnb.Schedule(g, m, bnb.Options{GPUs: gpus, MaxNodes: 20_000_000})
		if err != nil && !errors.Is(err, bnb.ErrTruncated) {
			return nil, err
		}
		lpRes, err := lp.Schedule(g, m, lp.Options{GPUs: gpus, InterOnly: true})
		if err != nil {
			return nil, err
		}
		mrRes, err := mr.Schedule(g, m, mr.Options{GPUs: gpus, InterOnly: true})
		if err != nil {
			return nil, err
		}
		return []float64{lpRes.Latency.Ratio(opt.Latency), mrRes.Latency.Ratio(opt.Latency)}, nil
	})
	if err != nil {
		return Figure{}, err
	}
	addSeries(&fig, []string{AlgoInterLP, AlgoInterMR}, xs, samples)
	return fig, nil
}
