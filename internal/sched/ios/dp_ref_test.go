package ios

// A reference IOS dynamic program, written for clarity instead of speed:
// map-backed buckets that keep every state any transition reaches, and a
// beam applied by sorting a whole bucket and trimming it when its count is
// expanded. It shares no storage or bucket code with solveBlock, so a
// bug in the bounded beam buckets (eviction, early drops, expansion
// order) shows up as a schedule or latency difference, which the NoPrune,
// NoCache and Workers differential tests cannot see: their two sides run
// the same bucket code.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/randdag"
	"github.com/shus-lab/hios/internal/sched"
	"github.com/shus-lab/hios/internal/units"
)

// refState is one reference DP state. Its stage is the set difference
// with its predecessor, in block order — the order stages are enumerated.
type refState struct {
	set  bitset
	cost units.Millis
	prev *refState
}

// refBucket holds one operator count's states in creation order.
type refBucket struct {
	states []refState
	byset  map[bitset]int
}

func (b *refBucket) relax(set bitset, cost units.Millis, prev *refState) {
	if b.byset == nil {
		b.byset = map[bitset]int{}
	}
	if i, ok := b.byset[set]; ok {
		if old := &b.states[i]; cost < old.cost {
			old.cost, old.prev = cost, prev
		}
		return
	}
	b.byset[set] = len(b.states)
	b.states = append(b.states, refState{set: set, cost: cost, prev: prev})
}

// refLess is the beam's (cost, bitset) order, bitsets compared word by
// word from the low operators up.
func refLess(x, y *refState) bool {
	if x.cost != y.cost { //lint:floatexact comparator tie-break: epsilon would break the strict weak order
		return x.cost < y.cost
	}
	for w := range x.set {
		if x.set[w] != y.set[w] {
			return x.set[w] < y.set[w]
		}
	}
	return false
}

// refSolveBlock returns the stage decomposition of one block under the
// filled options.
func refSolveBlock(g *graph.Graph, m cost.Model, block []graph.OpID, opt Options) [][]graph.OpID {
	b := len(block)
	if b == 1 {
		return [][]graph.OpID{{block[0]}}
	}
	local := make(map[graph.OpID]int, b)
	for i, v := range block {
		local[v] = i
	}
	preds := make([][]int, b)
	for i, v := range block {
		g.Preds(v, func(u graph.OpID, _ float64) {
			if j, ok := local[u]; ok {
				preds[i] = append(preds[i], j)
			}
		})
	}
	beam := opt.Beam
	if b <= opt.ExactLimit {
		beam = 0
	}
	buckets := make([]refBucket, b+1)
	buckets[0].relax(bitset{}, 0, nil)
	for c := 0; c < b; c++ {
		// The bucket is final here (transitions only reach larger
		// counts), so pointers into it stay valid as predecessors.
		var states []*refState
		for k := range buckets[c].states {
			states = append(states, &buckets[c].states[k])
		}
		if beam > 0 && len(states) > beam {
			sort.Slice(states, func(i, j int) bool { return refLess(states[i], states[j]) })
			states = states[:beam]
		}
		for _, st := range states {
			var front []int
			for i := 0; i < b; i++ {
				ready := !st.set.has(i)
				for _, p := range preds[i] {
					ready = ready && st.set.has(p)
				}
				if ready {
					front = append(front, i)
				}
			}
			if len(front) > opt.PruneWindow {
				front = front[:opt.PruneWindow]
			}
			// Every non-empty subset of front of at most MaxStage
			// members, each subset visited before its extensions.
			var stage []graph.OpID
			var enum func(from int, set bitset)
			enum = func(from int, set bitset) {
				for j := from; j < len(front); j++ {
					next := set
					next.set(front[j])
					stage = append(stage, block[front[j]])
					buckets[c+len(stage)].relax(next, st.cost+m.StageTime(stage), st)
					if len(stage) < opt.MaxStage {
						enum(j+1, next)
					}
					stage = stage[:len(stage)-1]
				}
			}
			enum(0, st.set)
		}
		buckets[c].byset = nil
	}
	var stages [][]graph.OpID
	for st := &buckets[b].states[0]; st.prev != nil; st = st.prev {
		var stage []graph.OpID
		for i, v := range block {
			if st.set.has(i) && !st.prev.set.has(i) {
				stage = append(stage, v)
			}
		}
		stages = append([][]graph.OpID{stage}, stages...)
	}
	return stages
}

// refSchedule renders the reference schedule like renderSchedule.
func refSchedule(t *testing.T, cfg *randdag.Config, opt Options) string {
	t.Helper()
	g := randdag.MustGenerate(*cfg)
	m := cost.FromGraph(g, cost.DefaultContention())
	opt.fill()
	s := sched.New(1)
	for _, block := range Blocks(g) {
		for _, st := range refSolveBlock(g, m, block, opt) {
			s.AppendStage(0, st)
		}
	}
	lat, err := sched.Latency(g, m, s)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%v|%b", s.GPUs[0].Stages, float64(lat))
}

// refPaperCase derives the i-th paper-size oracle instance: a 200-400-op
// paper-shaped graph solved in beam mode at a beam of 8-56.
func refPaperCase(i int) (*randdag.Config, Options) {
	rng := rand.New(rand.NewSource(int64(5000 + i)))
	cfg := randdag.Paper()
	cfg.Ops = 200 + rng.Intn(201)
	cfg.Layers = cfg.Ops / 14
	cfg.Deps = 2 * cfg.Ops
	cfg.Seed = int64(100 + i)
	return &cfg, Options{ExactLimit: 1, Beam: 8 + rng.Intn(49), NoCache: true}
}

// refPaperInstances is the paper-size oracle corpus size.
const refPaperInstances = 20

func TestScheduleMatchesReferenceDP(t *testing.T) {
	check := func(name string, cfg *randdag.Config, opt Options) {
		t.Helper()
		want := refSchedule(t, cfg, opt)
		if got := renderSchedule(t, cfg, opt); got != want {
			t.Fatalf("%s (%d ops, %+v): Schedule diverged from the reference DP\nref: %s\ngot: %s",
				name, cfg.Ops, opt, want, got)
		}
	}
	for i := 0; i < diffInstances; i++ {
		cfg, opt := diffCase(i)
		opt.NoCache = true
		check(fmt.Sprintf("diff instance %d", i), cfg, opt)
	}
	for i := 0; i < refPaperInstances; i++ {
		cfg, opt := refPaperCase(i)
		check(fmt.Sprintf("paper instance %d", i), cfg, opt)
	}
}

// TestBeamBucketsBounded pins the storage side of the bounded buckets: in
// beam mode no count bucket ever holds more than Beam states, and the
// corpus does fill buckets to the bound (so the eviction path runs).
func TestBeamBucketsBounded(t *testing.T) {
	filled := false
	for i := 0; i < refPaperInstances; i++ {
		cfg, opt := refPaperCase(i)
		opt.fill()
		g := randdag.MustGenerate(*cfg)
		m := cost.FromGraph(g, cost.DefaultContention())
		var sv solver
		for _, block := range Blocks(g) {
			if len(block) <= opt.ExactLimit {
				continue
			}
			if _, err := sv.solveBlock(g, m, block, opt); err != nil {
				t.Fatal(err)
			}
			if sv.peak > opt.Beam {
				t.Fatalf("instance %d: a %d-op block's bucket held %d states, beam %d",
					i, len(block), sv.peak, opt.Beam)
			}
			filled = filled || sv.peak == opt.Beam
		}
	}
	if !filled {
		t.Fatal("no bucket reached the beam: the corpus never exercises eviction")
	}
}
