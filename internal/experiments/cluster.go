package experiments

import (
	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/sched/lp"
)

// ClusterStudy extends the paper's SMP setting to the multi-node clusters
// its introduction motivates: a two-node, two-GPUs-per-node platform where
// inter-node transfers cost interFactor times the intra-node baseline. It
// compares topology-aware HIOS-LP (scheduling against the hierarchical
// cost model, so trial mappings see the true pair costs) with
// topology-blind HIOS-LP (scheduling against the flat model, then
// measured on the hierarchical platform), across inter-node cost factors.
//
// The gap between the two curves is the value of topology awareness;
// it must be >= 0 at every factor and grow as inter-node links slow down.
func ClusterStudy(opt SimOptions) (Figure, error) {
	opt.fill()
	factors := []float64{1, 2, 4, 8, 16}
	const nodes, perNode = 2, 2
	fig := Figure{
		ID:     "Cluster",
		Title:  "topology-aware vs topology-blind HIOS-LP on a 2x2 cluster",
		XLabel: "inter_node_factor",
		YLabel: "latency_ms",
	}
	// Each seed's cell returns the aware latency at every factor, then
	// the blind one.
	samples, err := seedGrid(1, opt.Seeds, opt.Workers, 2*len(factors), func(_ int, seed int64) ([]float64, error) {
		g, flat, err := paperModel(seed)
		if err != nil {
			return nil, err
		}
		// Blind: one schedule decided on the flat model, reused at
		// every factor (the scheduler does not know the topology).
		blindRes, err := lp.Schedule(g, flat, lp.Options{GPUs: nodes * perNode})
		if err != nil {
			return nil, err
		}
		lats := make([]float64, 2*len(factors))
		for i, f := range factors {
			topo := cost.WithTopology(flat, gpu.TwoLevel(nodes, perNode, f))
			awareRes, err := lp.Schedule(g, topo, lp.Options{GPUs: nodes * perNode})
			if err != nil {
				return nil, err
			}
			blindLat, err := sched.Latency(g, topo, blindRes.Schedule)
			if err != nil {
				return nil, err
			}
			lats[i], lats[len(factors)+i] = float64(awareRes.Latency), float64(blindLat)
		}
		return lats, nil
	})
	if err != nil {
		return Figure{}, err
	}
	perFactor := firstPoint(samples)
	fig.Series = []Series{
		collect("hios-lp-topology-aware", factors, perFactor[:len(factors)]),
		collect("hios-lp-topology-blind", factors, perFactor[len(factors):]),
	}
	return fig, nil
}
