package ios

import (
	"errors"
	"fmt"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/graph"
	"github.com/shus-lab/hios/internal/units"
)

// maxBlockOps bounds the number of operators one DP block may hold: the
// bitset state is a fixed [8]uint64 so it can serve directly as a hash key
// without per-state string allocation. 512 operators per block is far
// beyond anything the dynamic program could enumerate in practice anyway.
const maxBlockOps = 8 * 64

// ErrBlockTooLarge reports a scheduling block wider than maxBlockOps
// operators. Schedule and SolveSequence wrap it with the block size.
var ErrBlockTooLarge = errors.New("ios: block exceeds the 512-operator limit")

// bitset is a fixed-width set over a block's local operator indices,
// comparable by value.
type bitset [8]uint64

func (b *bitset) set(i int)      { b[i/64] |= 1 << (uint(i) % 64) }
func (b *bitset) unset(i int)    { b[i/64] &^= 1 << (uint(i) % 64) }
func (b *bitset) has(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// zobrist holds one random-looking 64-bit key per local operator index.
// A state's hash is the XOR of its members' keys, so the DP maintains it
// incrementally in O(1) per set/unset along the subset-enumeration DFS
// instead of re-mixing the whole bitset per candidate. The keys come from
// a splitmix64 stream over the index — fixed constants that hash bitsets
// and never feed an RNG, hence the seedflow suppressions. The hash only
// picks open-addressing probe positions (lookups compare full bitsets),
// so the choice of constants cannot affect any result.
var zobrist [maxBlockOps]uint64

func init() {
	x := uint64(0)
	for i := range zobrist {
		x += 0x9e3779b97f4a7c15 //lint:seedflow (hash mixing, not seed derivation)
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9 //lint:seedflow (hash mixing, not seed derivation)
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb //lint:seedflow (hash mixing, not seed derivation)
		zobrist[i] = z ^ (z >> 31)
	}
}

// dpState is one DP node: a prefix-closed set of scheduled block operators.
// Pending states live in their count bucket's slab and are indexed there by
// open addressing on the incremental hash; once expanded, a state is copied
// to the solver's done slab, and prev always names a done index — a state's
// predecessor is necessarily expanded before the state itself. Nothing in a
// dpState points into the heap, so growing either slab moves states without
// invalidating anything.
type dpState struct {
	set      bitset
	hash     uint64       // XOR of zobrist keys of the members
	cost     units.Millis // best known dp[S]
	work     units.Millis // Σ t·u along the best path (fast path; bounds pruning)
	prev     int32        // done-slab index of the predecessor (-1 for the start)
	stageOff int32        // stage range: pending arena while pending, done arena after
	stageLen int32
}

// pending is the storage of one in-flight operator count: the states that
// have been created but not yet expanded, their interned stages, and the
// open-addressing index over them (0 = empty, else state index + 1).
//
// Transitions strictly increase the count by at most MaxStage, so at most
// MaxStage+1 counts are ever live at once: the one being expanded and the
// MaxStage ahead of it. The solver keeps a ring of that many pending
// buckets and recycles each one wholesale after its count is processed —
// the old single-slab layout retained every state ever created, which made
// a 200-op beam solve touch hundreds of megabytes; the ring keeps the
// working set to the live window.
//
// In beam mode a bucket holds at most Beam states (see solver.transition).
// Once it has seen more than Beam distinct sets it has overflowed: order
// then lists every state index ascending by (cost, bitset), maxCost is
// the cost of its last (largest) state, and an evicted state's slot is
// reused by the set that displaced it. Before that order is empty and the
// slab is in insertion order.
type pending struct {
	states  []dpState
	arena   []graph.OpID
	index   []int32
	filled  int
	order   []int32
	maxCost units.Millis
}

// find returns the bucket index of the state with the given set, or -1.
func (p *pending) find(hash uint64, set *bitset) int32 {
	mask := uint64(len(p.index) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		e := p.index[i]
		if e == 0 {
			return -1
		}
		if p.states[e-1].set == *set {
			return e - 1
		}
	}
}

// insert records the state at bucket index si in the index, growing and
// rehashing at 3/4 load.
func (p *pending) insert(si int32) {
	if (p.filled+1)*4 >= len(p.index)*3 {
		p.rehash(len(p.index) * 2)
	}
	mask := uint64(len(p.index) - 1)
	i := p.states[si].hash & mask
	for p.index[i] != 0 {
		i = (i + 1) & mask
	}
	p.index[i] = si + 1
	p.filled++
}

// remove deletes the state at bucket index si from the index by backward
// shifting: every later entry of the probe run that may legally move into
// the hole does, so lookups never need tombstones.
func (p *pending) remove(si int32) {
	index := p.index
	if len(index) == 0 {
		return // never: the index holds si (lets the compiler drop bounds checks)
	}
	mask := uint64(len(index) - 1)
	i := p.states[si].hash & mask
	for index[i&mask] != si+1 {
		i = (i + 1) & mask
	}
	for j := i; ; {
		j = (j + 1) & mask
		e := index[j&mask]
		if e == 0 {
			break
		}
		// The entry at j may fill the hole at i unless its home position
		// lies cyclically in (i, j].
		if h := p.states[e-1].hash & mask; (j-h)&mask < (j-i)&mask {
			continue
		}
		index[i&mask] = e
		i = j
	}
	index[i&mask] = 0
	p.filled--
}

func (p *pending) rehash(capacity int) {
	if cap(p.index) >= capacity {
		p.index = p.index[:capacity]
		clear(p.index)
	} else {
		p.index = make([]int32, capacity)
	}
	mask := uint64(capacity - 1)
	for si := range p.states {
		i := p.states[si].hash & mask
		for p.index[i] != 0 {
			i = (i + 1) & mask
		}
		p.index[i] = int32(si) + 1
	}
}

// recycle empties the bucket for reuse by a later count, keeping every
// backing array.
func (p *pending) recycle() {
	p.states = p.states[:0]
	p.arena = p.arena[:0]
	p.order = p.order[:0]
	p.filled = 0
	clear(p.index)
}

// keyLess orders a (cost, set) key before state o under (cost, bitset):
// the beam's total order. Distinct states have distinct bitsets, so the
// order is strict and the kept set is unique.
func keyLess(cost units.Millis, set *bitset, o *dpState) bool {
	// Exact IEEE inequality keeps this tie-break a strict weak order; an
	// epsilon compare would not.
	if cost != o.cost { //lint:floatexact comparator tie-break: epsilon would break the strict weak order
		return cost < o.cost
	}
	return less(set, &o.set)
}

// overflow builds order for a bucket holding exactly Beam states, the
// first time a further distinct set arrives: an insertion sort of the
// slab, run once per overflowing bucket.
func (p *pending) overflow() {
	for si := range p.states {
		p.order = append(p.order, int32(si))
		p.promote(len(p.order) - 1)
	}
}

// promote restores the ascending order after the state at order position
// k lowered its key (an in-place improvement, or a fresh set reusing the
// evicted maximum's slot at the last position) by moving it forward, and
// refreshes maxCost.
func (p *pending) promote(k int) {
	order, states := p.order, p.states
	si := order[k]
	st := &states[si]
	for ; k > 0; k-- {
		prev := order[k-1]
		if !keyLess(st.cost, &st.set, &states[prev]) {
			break
		}
		order[k], order[k-1] = prev, si
	}
	p.maxCost = states[order[len(order)-1]].cost
}

// position returns where state si sits in order.
func (p *pending) position(si int32) int {
	for k := len(p.order) - 1; k > 0; k-- {
		if p.order[k] == si {
			return k
		}
	}
	return 0
}

// solver holds every scratch structure of the block dynamic program so one
// Schedule call (or one SolveSequence caller) reuses the allocations across
// blocks. The zero value is ready. Per-block context (the block, the model,
// the filled options) lives in fields so the enumeration can recurse
// through methods without per-block closures.
type solver struct {
	inBlock []int32 // graph OpID -> local block index, -1 outside
	preds   [][]int // local intra-block predecessor lists

	ring      []pending    // pending buckets, slot = count % (MaxStage+1)
	done      []dpState    // expanded states, in expansion order
	doneArena []graph.OpID // stage storage of done states

	front  []int          // frontier scratch
	stage  []int          // current candidate stage (local indices)
	probe  []graph.OpID   // candidate stage as graph IDs (generic path)
	succs  [][]int        // local successor lists (chain bounds)
	tails  []units.Millis // longest remaining dependency chain per local op
	keyBuf []byte         // dpcache signature scratch (cache.go)

	// Per-block context.
	block    []graph.OpID
	m        cost.Model
	items    []cost.Item     // per local op (fast path); valid when fast
	ct       cost.Contention // item fold (fast path)
	fast     bool            // m implements cost.ItemModel
	maxStage int
	window   int
	beam     int // per-count state bound; 0 in exact mode

	// DFS-incremental candidate state: nset/nhash track curSet plus the
	// members of s.stage; cur* are the expanding state's fields, copied
	// out of the bucket so methods never hold pointers into growable
	// slabs.
	nset    bitset
	nhash   uint64
	curCost units.Millis
	curWork units.Millis
	curDone int32
	curSlot int // ring slot of the expanding state's count

	// peak is the largest bucket population expanded since reset; tests
	// hold it to the beam.
	peak int

	// Incumbent pruning (fast path only; see solveBlock).
	prune     bool         // incumbent threshold active
	exactLB   bool         // lower-bound pruning active (exact mode only)
	haveTails bool         // tails valid (block order was topological)
	thr       units.Millis // incumbent cost threshold
	totalWork units.Millis // Σ t·u over the whole block
	didPrune  bool         // at least one state was actually discarded
}

// ensureInBlock sizes the OpID -> local-index map for a graph of n
// operators, every entry -1 (callers restore what they set).
func (s *solver) ensureInBlock(n int) {
	if len(s.inBlock) < n {
		s.inBlock = make([]int32, n)
		for i := range s.inBlock {
			s.inBlock[i] = -1
		}
	}
}

// reset prepares the solver for a block of b operators over a graph of n.
func (s *solver) reset(n, b int, opt Options) {
	s.ensureInBlock(n)
	s.preds = growNested(s.preds, b)
	for i := range s.preds {
		s.preds[i] = s.preds[i][:0]
	}
	ringLen := opt.MaxStage + 1
	if cap(s.ring) < ringLen {
		next := make([]pending, ringLen)
		copy(next, s.ring)
		s.ring = next
	} else {
		s.ring = s.ring[:ringLen]
	}
	// Start each index small; rehash doubles as a count's population grows,
	// and recycle keeps whatever size a slot reached.
	const initialIndex = 256
	for i := range s.ring {
		pd := &s.ring[i]
		pd.states = pd.states[:0]
		pd.arena = pd.arena[:0]
		pd.order = pd.order[:0]
		pd.filled = 0
		if cap(pd.index) < initialIndex {
			pd.index = make([]int32, initialIndex)
		} else {
			clear(pd.index)
		}
	}
	s.done = s.done[:0]
	s.doneArena = s.doneArena[:0]
	s.maxStage = opt.MaxStage
	s.window = opt.PruneWindow
	s.prune = false
	s.exactLB = false
	s.haveTails = false
	s.didPrune = false
	s.peak = 0
}

// growNested resizes a slice of slices, keeping the inner backing arrays
// of reused entries. New entries start nil.
func growNested[T any](buf [][]T, n int) [][]T {
	if cap(buf) < n {
		next := make([][]T, n)
		copy(next, buf)
		return next
	}
	return buf[:n]
}

// transition records the candidate stage in s.stage as a DP transition
// from the current expanding state: dp[S∪T] = min(dp[S∪T], dp[S] + t).
// The target state's set and hash are already in nset/nhash (maintained by
// the enumeration DFS); stageWork is the stage's Σ t·u (fast path; 0 on
// the generic path, which never reads work).
//
// In beam mode the target bucket keeps only the Beam smallest states under
// (cost, bitset) — exactly the states a sort-and-trim of the unbounded
// bucket would keep, with the same records. The bucket's Beam-th key never
// rises as candidates arrive (costs only fall, sets only join), so a state
// outside the top Beam can never re-enter with its old record: once the
// bucket has overflowed, a candidate costing more than the current
// maximum is dropped without a lookup, a new set below the maximum evicts
// it, and a present set improves in place under the strict < the
// unbounded DP uses.
func (s *solver) transition(t, stageWork units.Millis) {
	ncost := s.curCost + t
	slot := s.curSlot + len(s.stage)
	if slot >= len(s.ring) {
		slot -= len(s.ring)
	}
	pd := &s.ring[slot]
	if len(pd.order) > 0 && ncost > pd.maxCost {
		return
	}
	if oi := pd.find(s.nhash, &s.nset); oi >= 0 {
		old := &pd.states[oi]
		if ncost < old.cost {
			old.cost = ncost
			old.work = s.curWork + stageWork
			old.prev = s.curDone
			s.storeStage(pd, old)
			if len(pd.order) > 0 {
				pd.promote(pd.position(oi))
			}
		}
		return
	}
	if s.beam > 0 && len(pd.states) == s.beam {
		if len(pd.order) == 0 {
			pd.overflow()
		}
		last := len(pd.order) - 1
		mi := pd.order[last]
		st := &pd.states[mi]
		if !keyLess(ncost, &s.nset, st) {
			return
		}
		pd.remove(mi)
		st.set, st.hash, st.cost = s.nset, s.nhash, ncost
		st.work, st.prev = s.curWork+stageWork, s.curDone
		s.storeStage(pd, st)
		pd.insert(mi)
		pd.promote(last)
		return
	}
	off := int32(len(pd.arena))
	for _, li := range s.stage {
		pd.arena = append(pd.arena, s.block[li])
	}
	pd.states = append(pd.states, dpState{
		set:      s.nset,
		hash:     s.nhash,
		cost:     ncost,
		work:     s.curWork + stageWork,
		prev:     s.curDone,
		stageOff: off,
		stageLen: int32(len(s.stage)),
	})
	pd.insert(int32(len(pd.states) - 1))
}

// storeStage interns s.stage as st's stage: it overwrites st's arena range
// in place when the stage fits (ranges are exclusive per state) and
// appends a fresh range only when it grew.
func (s *solver) storeStage(pd *pending, st *dpState) {
	if int32(len(s.stage)) <= st.stageLen {
		for k, li := range s.stage {
			pd.arena[int(st.stageOff)+k] = s.block[li]
		}
	} else {
		st.stageOff = int32(len(pd.arena))
		for _, li := range s.stage {
			pd.arena = append(pd.arena, s.block[li])
		}
	}
	st.stageLen = int32(len(s.stage))
}

// enumFast visits every non-empty subset of fr[i:] extending the current
// stage prefix (capped at maxStage members), pricing each candidate by
// folding the block's items through the contention model incrementally:
// the aggregates ride the recursion as arguments, so extending a stage by
// one operator costs one accumulate instead of re-pricing the whole
// candidate. The visit order is identical to the generic enumeration.
func (s *solver) enumFast(fr []int, i int, maxT, work units.Millis, util float64) {
	for j := i; j < len(fr); j++ {
		li := fr[j]
		it := s.items[li]
		nmaxT, nwork, nutil := s.ct.Accumulate(maxT, work, util, it.Time, it.Util)
		s.nset.set(li)
		s.nhash ^= zobrist[li]
		s.stage = append(s.stage, li)
		var t units.Millis
		if len(s.stage) == 1 {
			// Bit-identical to the fold: with util in (0, 1] after
			// clamping, max(t, t·u) is t and no oversubscription scale
			// fires. Matches GraphModel.StageTime's singleton case.
			t = it.Time
		} else {
			t = s.ct.Combine(nmaxT, nwork, nutil)
		}
		s.transition(t, nwork)
		if len(s.stage) < s.maxStage && j+1 < len(fr) {
			s.enumFast(fr, j+1, nmaxT, nwork, nutil)
		}
		s.stage = s.stage[:len(s.stage)-1]
		s.nhash ^= zobrist[li]
		s.nset.unset(li)
	}
}

// enumGeneric is enumFast for models outside the ItemModel contract: each
// candidate is priced by m.StageTime on the incrementally maintained probe
// slice. The probe contents, call set and call order are identical to the
// pre-rework DP, which keeps probe-counting models (profile.CostTable and
// the Fig. 14 accounting built on it) byte-identical.
func (s *solver) enumGeneric(fr []int, i int) {
	for j := i; j < len(fr); j++ {
		li := fr[j]
		s.nset.set(li)
		s.nhash ^= zobrist[li]
		s.stage = append(s.stage, li)
		s.probe = append(s.probe, s.block[li])
		s.transition(s.m.StageTime(s.probe), 0)
		if len(s.stage) < s.maxStage && j+1 < len(fr) {
			s.enumGeneric(fr, j+1)
		}
		s.probe = s.probe[:len(s.probe)-1]
		s.stage = s.stage[:len(s.stage)-1]
		s.nhash ^= zobrist[li]
		s.nset.unset(li)
	}
}

// dive runs one greedy completion from the empty state: every step
// schedules the first min(width, len) frontier operators as one stage.
// Each such stage is a candidate the DP enumeration itself generates
// (width never exceeds MaxStage or PruneWindow), and each stage is priced
// with the DP's own arithmetic, so the returned total is the exact cost
// of a reachable DP path — a sound incumbent. Reports ok=false when the
// dive dead-ends (a cyclic block), which disables pruning so the DP
// surfaces the same error it always has.
func (s *solver) dive(b, width int) (units.Millis, bool) {
	var set bitset
	var total units.Millis
	for scheduled := 0; scheduled < b; {
		s.front = frontierOf(&set, s.preds[:b], b, s.front[:0])
		if len(s.front) == 0 {
			return 0, false
		}
		fr := s.front
		if len(fr) > width {
			fr = fr[:width]
		}
		var maxT, work units.Millis
		var util float64
		for _, li := range fr {
			it := s.items[li]
			maxT, work, util = s.ct.Accumulate(maxT, work, util, it.Time, it.Util)
			set.set(li)
		}
		if len(fr) == 1 {
			total += s.items[fr[0]].Time
		} else {
			total += s.ct.Combine(maxT, work, util)
		}
		scheduled += len(fr)
	}
	return total, true
}

// prepareBounds computes the per-operator completion lower bounds used by
// exact-mode pruning: tails[i] is the longest dependency chain starting
// at i (every chain member occupies a distinct later stage, and a stage
// costs at least its longest member), and totalWork is the block's Σ t·u
// (a stage costs at least its utilization-weighted work). Chain bounds
// need the local order to be topological — true for Blocks output and
// every schedule-derived sequence — and are skipped (not faked) when a
// caller hands SolveSequence something stranger.
func (s *solver) prepareBounds(b int) {
	topo := true
	for i := 0; i < b && topo; i++ {
		for _, p := range s.preds[i] {
			if p >= i {
				topo = false
				break
			}
		}
	}
	if topo {
		s.succs = growNested(s.succs, b)
		for i := range s.succs {
			s.succs[i] = s.succs[i][:0]
		}
		for i := 0; i < b; i++ {
			for _, p := range s.preds[i] {
				s.succs[p] = append(s.succs[p], i)
			}
		}
		if cap(s.tails) < b {
			s.tails = make([]units.Millis, b)
		}
		s.tails = s.tails[:b]
		for i := b - 1; i >= 0; i-- {
			var best units.Millis
			for _, j := range s.succs[i] {
				if s.tails[j] > best {
					best = s.tails[j]
				}
			}
			s.tails[i] = s.items[i].Time + best
		}
		s.haveTails = true
	}
	var maxT, work units.Millis
	var util float64
	for _, it := range s.items {
		maxT, work, util = s.ct.Accumulate(maxT, work, util, it.Time, it.Util)
	}
	s.totalWork = work
}

// lowerBound returns a completion lower bound for the expanding state:
// the longest remaining dependency chain (rooted at a frontier operator —
// every unscheduled operator sits below one) and the remaining
// utilization-weighted work, whichever is larger. Both bounds are
// "consistent" — they never exceed the true remaining cost by more than
// float fold-order noise, which the incumbent margin absorbs.
func (s *solver) lowerBound(stWork units.Millis) units.Millis {
	var lb units.Millis
	if s.haveTails {
		for _, f := range s.front {
			if s.tails[f] > lb {
				lb = s.tails[f]
			}
		}
	}
	if rem := s.totalWork - stWork; rem > lb {
		lb = rem
	}
	return lb
}

// solveBlock runs the IOS dynamic program on one block and returns the
// optimal (or beam-pruned) stage decomposition in execution order. The
// returned stage slices are freshly allocated (the solver's storage is
// reused by the next block).
//
// For cost models satisfying the ItemModel contract the DP additionally
// prunes with an incumbent bound: two greedy dives (stage width
// min(MaxStage, PruneWindow), and width 1) provide an exact reachable-path
// cost, and any state whose own cost — plus, in exact mode, a completion
// lower bound — exceeds that incumbent (with a 1e-9 relative margin
// absorbing float fold-order noise) is discarded unexpanded. Pruning is
// exact, not approximate: a discarded state provably cannot change the
// final (cost, back-pointer, stage) chain, and as a belt-and-braces
// guarantee the solve reruns itself unpruned in the (never yet observed)
// case that the pruned run finishes above the incumbent threshold. See
// DESIGN.md §15 for the full invariant argument.
//
// solveBlock (not Schedule) is the hot-path root: the surrounding block
// partition (Blocks) legitimately allocates its one-shot reachability
// bitsets, while everything below runs once per DP state transition.
//
//lint:hotpath
func (s *solver) solveBlock(g *graph.Graph, m cost.Model, block []graph.OpID, opt Options) ([][]graph.OpID, error) {
	b := len(block)
	if b == 1 {
		return [][]graph.OpID{{block[0]}}, nil
	}
	if b > maxBlockOps {
		return nil, fmt.Errorf("%w: block of %d operators", ErrBlockTooLarge, b)
	}
	s.reset(g.NumOps(), b, opt)
	s.block, s.m = block, m
	for i, v := range block {
		s.inBlock[v] = int32(i)
	}
	// Local predecessor lists (only intra-block edges constrain the DP;
	// inter-block inputs come from earlier blocks, already complete).
	// inBlock entries are restored to -1 before returning so the next
	// block (or the next graph) starts clean.
	defer func() {
		for _, v := range block {
			s.inBlock[v] = -1
		}
	}()
	// The collect callback is created once for the whole block sweep; li
	// carries the current local index into it.
	var li int
	collect := func(u graph.OpID, _ float64) {
		if j := s.inBlock[u]; j >= 0 {
			s.preds[li] = append(s.preds[li], int(j))
		}
	}
	for i, v := range block {
		li = i
		g.Preds(v, collect)
	}
	beam := opt.Beam
	if b <= opt.ExactLimit {
		beam = 0 // exact within small blocks
	}
	s.beam = beam

	im, fast := m.(cost.ItemModel)
	s.fast = fast
	if fast {
		s.ct = im.Contention()
		s.items = s.items[:0]
		for _, v := range block {
			s.items = append(s.items, im.StageItem(v))
		}
		if !opt.NoPrune {
			// Incumbent pruning. Restricted to the item fast path: a
			// greedy dive against a probe-counting model would add probes
			// the unpruned DP never made and corrupt the Fig. 14
			// profiling accounting.
			w := min(opt.MaxStage, opt.PruneWindow)
			inc1, ok1 := s.dive(b, w)
			inc2, ok2 := s.dive(b, 1)
			if ok1 && ok2 {
				s.thr = min(inc1, inc2).Scale(1 + 1e-9)
				s.prune = true
				if beam == 0 {
					// Lower-bound pruning discards live states and is only
					// result-invariant when every state is otherwise
					// expanded — i.e. in exact mode. Under a beam it could
					// change which states the beam keeps, so beam mode
					// prunes on accumulated cost alone.
					s.exactLB = true
					s.prepareBounds(b)
				}
			}
		}
	}

	// State 0 is the empty start state; buckets are processed in count
	// order, and every transition strictly increases the count, so each
	// bucket is final when its turn comes.
	ring0 := &s.ring[0]
	ring0.states = append(ring0.states, dpState{prev: -1})
	ring0.insert(0)

	if cap(s.probe) < opt.MaxStage {
		s.probe = make([]graph.OpID, 0, opt.MaxStage)
	}
	s.probe = s.probe[:0]
	if cap(s.stage) < opt.MaxStage {
		s.stage = make([]int, 0, opt.MaxStage)
	}
	s.stage = s.stage[:0]

	// A beam bucket that overflowed is expanded in (cost, bitset) order —
	// the order a sort-and-trim leaves — and any other bucket in insertion
	// order. Expanding an overflowed bucket in slab order instead keeps
	// the same states but changes which of several equal-cost paths each
	// successor records first, and so changes schedules.
	for c, slot := 0, 0; c < b; c++ {
		pd := &s.ring[slot]
		n := len(pd.states)
		s.peak = max(s.peak, n)
		for k := 0; k < n; k++ {
			si := int32(k)
			if len(pd.order) > 0 {
				si = pd.order[k]
			}
			st := &pd.states[si]
			if s.prune && st.cost > s.thr {
				// Already above the best known completion: no descendant
				// can improve any state the final schedule passes through.
				s.didPrune = true
				continue
			}
			s.front = frontierOf(&st.set, s.preds[:b], b, s.front[:0])
			if len(s.front) == 0 {
				return nil, fmt.Errorf("ios: empty frontier with %d/%d scheduled (cyclic block?)", c, b)
			}
			if s.exactLB && st.cost+s.lowerBound(st.work) > s.thr {
				s.didPrune = true
				continue
			}
			// Move the expanding state to the done slab: its bucket is
			// recycled after this count, but back-pointers must survive.
			di := int32(len(s.done))
			doneOff := int32(len(s.doneArena))
			s.doneArena = append(s.doneArena, pd.arena[st.stageOff:st.stageOff+st.stageLen]...)
			ds := *st
			ds.stageOff = doneOff
			s.done = append(s.done, ds)

			s.curCost, s.curWork, s.curDone, s.curSlot = st.cost, st.work, di, slot
			s.nset = st.set
			s.nhash = st.hash
			fr := s.front
			if len(fr) > opt.PruneWindow {
				fr = fr[:opt.PruneWindow]
			}
			if fast {
				s.enumFast(fr, 0, 0, 0, 0)
			} else {
				s.enumGeneric(fr, 0)
			}
		}
		pd.recycle()
		if slot++; slot == len(s.ring) {
			slot = 0
		}
	}

	var full bitset
	fh := uint64(0)
	for i := 0; i < b; i++ {
		full.set(i)
		fh ^= zobrist[i]
	}
	fullPd := &s.ring[b%len(s.ring)]
	end := fullPd.find(fh, &full)
	if s.didPrune && (end < 0 || fullPd.states[end].cost > s.thr) {
		// The pruned search finished above its own incumbent threshold —
		// only possible when a beam cut every path below the incumbent, in
		// which case the pruned and unpruned searches may diverge. Solve
		// again without pruning so the result is identical to the
		// pre-pruning DP by construction.
		opt.NoPrune = true
		return s.solveBlock(g, m, block, opt)
	}
	if end < 0 {
		return nil, fmt.Errorf("ios: dynamic program did not reach the full state (beam too narrow?)")
	}
	// Walk predecessors back to the empty state twice: once to count the
	// stages, once to copy each stage out of the arenas directly into its
	// execution-order slot. The final state's stage still lives in its
	// pending bucket; every earlier stage lives in the done arena.
	count := 1 // the full state's own stage
	for cur := fullPd.states[end].prev; ; count++ {
		if cur < 0 {
			return nil, fmt.Errorf("ios: broken DP back-pointer")
		}
		d := &s.done[cur]
		if d.stageLen == 0 {
			break // the empty start state
		}
		cur = d.prev
	}
	out := make([][]graph.OpID, count)
	i := count - 1
	{
		st := &fullPd.states[end]
		out[i] = append([]graph.OpID(nil), fullPd.arena[st.stageOff:st.stageOff+st.stageLen]...)
		i--
	}
	for cur := fullPd.states[end].prev; cur >= 0 && s.done[cur].stageLen > 0; i-- {
		d := &s.done[cur]
		out[i] = append([]graph.OpID(nil), s.doneArena[d.stageOff:d.stageOff+d.stageLen]...)
		cur = d.prev
	}
	return out, nil
}

func less(a, b *bitset) bool {
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// frontierOf appends to out the local indices whose intra-block
// predecessors are all members of set and which are not members
// themselves, in block (descending-priority) order.
func frontierOf(set *bitset, preds [][]int, b int, out []int) []int {
	for i := 0; i < b; i++ {
		if set.has(i) {
			continue
		}
		ready := true
		for _, p := range preds[i] {
			if !set.has(p) {
				ready = false
				break
			}
		}
		if ready {
			out = append(out, i)
		}
	}
	return out
}
