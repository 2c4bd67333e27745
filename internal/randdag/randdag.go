// Package randdag generates the random layered DL-model structures of the
// paper's simulation study (§V-A).
//
// A generated graph has a preset number of operators spread over a preset
// number of layers, with dependencies only pointing from earlier layers to
// later ones. Operator execution times are drawn uniformly from
// [MinTime, MaxTime] (the paper uses 0.1–4 ms), and the transfer time of
// an operator's output between GPUs is max(CommFloor, CommRatio·t(v)) —
// the paper's "a maximum of 0.1 milliseconds and p of the execution time
// of this operator" with p preset to 80%. Operator utilization (the input
// to the intra-GPU contention model) grows with execution time: the
// largest operators saturate a GPU alone, the smallest leave most of it
// idle, mirroring Fig. 1.
package randdag

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/shus-lab/hios/internal/graph"
)

// Config describes one random model family.
type Config struct {
	// Ops is the number of operators (paper default: 200).
	Ops int
	// Layers is the number of operator layers (paper default: 14).
	Layers int
	// Deps is the number of inter-operator dependencies (paper default:
	// 2 × Ops).
	Deps int
	// MinTime and MaxTime bound the uniform operator execution time in
	// milliseconds (paper: 0.1 and 4).
	MinTime, MaxTime float64
	// CommRatio is p, the ratio of an operator's output transfer time to
	// its execution time (paper default: 0.8).
	CommRatio float64
	// CommFloor is the minimum transfer time in milliseconds (paper:
	// 0.1), modeling per-message link latency.
	CommFloor float64
	// UtilMin is the utilization of a zero-time operator; utilization
	// interpolates linearly to 1.0 at MaxTime.
	UtilMin float64
	// Seed drives the deterministic generator.
	Seed int64
	// AdjacentOnly restricts the extra (non-structural) dependencies to
	// consecutive layers, concentrating fan-in. The default (false)
	// spreads them uniformly over all layer pairs, per §V-A. Adjacent
	// fan-in makes instances dependency-bound rather than load-bound:
	// every operator waits on several previous-layer finishes (+
	// transfers), so the critical path — not total work — limits
	// multi-GPU speedup. See EXPERIMENTS.md's Fig. 9 discussion.
	AdjacentOnly bool
}

// Paper returns the simulation defaults of §V-A.
func Paper() Config {
	return Config{
		Ops:       200,
		Layers:    14,
		Deps:      400,
		MinTime:   0.1,
		MaxTime:   4,
		CommRatio: 0.8,
		CommFloor: 0.1,
		UtilMin:   0.15,
		Seed:      1,
	}
}

// Generate builds one random layered DAG. The same Config always yields
// the same graph.
func Generate(cfg Config) (*graph.Graph, error) {
	if cfg.Ops < 1 {
		return nil, fmt.Errorf("randdag: need at least 1 operator, got %d", cfg.Ops)
	}
	if cfg.Layers < 1 || cfg.Layers > cfg.Ops {
		return nil, fmt.Errorf("randdag: layers %d out of range [1, %d]", cfg.Layers, cfg.Ops)
	}
	if cfg.MaxTime < cfg.MinTime || cfg.MinTime < 0 {
		return nil, fmt.Errorf("randdag: bad time range [%g, %g]", cfg.MinTime, cfg.MaxTime)
	}
	if cfg.Deps < 0 {
		return nil, fmt.Errorf("randdag: negative dependency count %d", cfg.Deps)
	}
	if !(cfg.CommRatio >= 0) || math.IsInf(cfg.CommRatio, 1) {
		return nil, fmt.Errorf("randdag: communication ratio %g must be finite and non-negative", cfg.CommRatio)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Assign operators to layers: one guaranteed per layer, the rest
	// uniform. layerOf is in operator-ID order; IDs within a layer stay
	// contiguous so layer membership is easy to reason about in tests.
	counts := make([]int, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		counts[l] = 1
	}
	for i := cfg.Layers; i < cfg.Ops; i++ {
		counts[rng.Intn(cfg.Layers)]++
	}
	g := graph.New(cfg.Ops, cfg.Deps)
	layers := make([][]graph.OpID, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		for k := 0; k < counts[l]; k++ {
			t := cfg.MinTime + rng.Float64()*(cfg.MaxTime-cfg.MinTime)
			util := 1.0
			if cfg.MaxTime > 0 {
				util = cfg.UtilMin + (1-cfg.UtilMin)*(t/cfg.MaxTime)
			}
			id := g.AddOp(graph.Op{
				Name: fmt.Sprintf("op%d_l%d", g.NumOps(), l),
				Time: t,
				Util: util,
				Kind: "synthetic",
			})
			layers[l] = append(layers[l], id)
		}
	}

	comm := func(u graph.OpID) float64 {
		t := cfg.CommRatio * g.Op(u).Time
		if t < cfg.CommFloor {
			t = cfg.CommFloor
		}
		return t
	}

	// Structural edges: every operator beyond the first layer depends on
	// at least one operator of the previous layer, which keeps the graph
	// layered in the Fig. 10 sense (layer count controls the degree of
	// parallelism).
	type pair struct{ u, v graph.OpID }
	used := make(map[pair]bool)
	edges := 0
	for l := 1; l < cfg.Layers; l++ {
		for _, v := range layers[l] {
			u := layers[l-1][rng.Intn(len(layers[l-1]))]
			g.AddEdge(u, v, comm(u))
			used[pair{u, v}] = true
			edges++
		}
	}
	// Remaining random forward dependencies between distinct layers.
	for attempts := 0; cfg.Layers > 1 && edges < cfg.Deps && attempts < 200*cfg.Deps; attempts++ {
		lu := rng.Intn(cfg.Layers - 1)
		lv := lu + 1
		if !cfg.AdjacentOnly {
			lv = lu + 1 + rng.Intn(cfg.Layers-lu-1)
		}
		u := layers[lu][rng.Intn(len(layers[lu]))]
		v := layers[lv][rng.Intn(len(layers[lv]))]
		if used[pair{u, v}] {
			continue
		}
		used[pair{u, v}] = true
		g.AddEdge(u, v, comm(u))
		edges++
	}
	if err := g.Finalize(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustGenerate is Generate that panics on error, for benchmarks and tests
// with statically valid configurations.
func MustGenerate(cfg Config) *graph.Graph {
	g, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return g
}
