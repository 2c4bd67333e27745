// Package costcache memoizes the analytic cost model across graphs.
//
// The roofline kernel model in internal/gpu and the contention stage
// model in internal/cost are pure functions of *shape* — device
// coefficients, FLOPs, bytes, thread counts — yet the experiment sweeps
// re-derive them from scratch for every graph, seed and input size,
// because every evaluation site addresses operators by OpID. This
// package keys the three §III-A probe kinds by their canonical shape
// signatures (gpu.KernelSig, gpu.TransferSig, cost.StageSig) in one
// read-mostly process-wide cache, so structurally identical kernels —
// the repeated cells of NASNet, the same convolution probed at every
// sweep point — are priced once per process rather than once per probe
// site.
//
// The cache prices at build time and in the Fig. 1/Fig. 2 probes, never
// inside a scheduler: model.Builder bakes the cached kernel and transfer
// values into the graph's weights, and a net's cached pricing
// (Net.CachedModel) is cost.FromGraph over those weights, which reads
// slices instead of taking a lock per probe.
//
// The cache sits BELOW profile.CostTable and is invisible to it: a
// CostTable keeps its own per-table maps and probe counters, so the
// Fig. 14 profiling-cost accounting (how many distinct probes an
// algorithm needs against a fresh table) is unchanged whether the
// shared cache is cold or warm.
//
// Concurrency: lookups take a read lock; a miss computes the value
// outside any lock (the functions are pure) and inserts under the write
// lock with a re-check. Because every value is a pure function of its
// key, concurrent racers compute bit-identical values and it does not
// matter whose insert wins — results are deterministic under any
// interleaving, which is what lets parallel sweep workers share one
// cache without perturbing byte-identical figure output.
package costcache

import (
	"sync"
	"sync/atomic"

	"github.com/shus-lab/hios/internal/cost"
	"github.com/shus-lab/hios/internal/gpu"
	"github.com/shus-lab/hios/internal/units"
)

// kernelEntry is a memoized solo-kernel probe: Device.Time and
// Device.Utilization are always wanted together.
type kernelEntry struct {
	time units.Millis
	util float64
}

// Cache memoizes kernel, transfer and stage probes by shape signature.
// The zero value is not ready; use New (or the process-wide Shared).
type Cache struct {
	mu        sync.RWMutex
	kernels   map[gpu.KernelSig]kernelEntry
	transfers map[gpu.TransferSig]units.Millis
	stages    map[cost.StageSig]units.Millis

	kernelHits     atomic.Int64
	kernelMisses   atomic.Int64
	transferHits   atomic.Int64
	transferMisses atomic.Int64
	stageHits      atomic.Int64
	stageMisses    atomic.Int64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		kernels:   make(map[gpu.KernelSig]kernelEntry),
		transfers: make(map[gpu.TransferSig]units.Millis),
		stages:    make(map[cost.StageSig]units.Millis),
	}
}

var shared = New()

// Shared returns the process-wide cache every builder and sweep worker
// shares. Values are pure functions of their signatures, so sharing is
// safe across concurrent experiments; Reset exists for benchmarks that
// want cold-cache numbers.
func Shared() *Cache { return shared }

// KernelTime returns Device.Time and Device.Utilization of k on d,
// memoized by shape.
func (c *Cache) KernelTime(d gpu.Device, k gpu.Kernel) (units.Millis, float64) {
	sig := d.Sig(k)
	c.mu.RLock()
	e, ok := c.kernels[sig]
	c.mu.RUnlock()
	if ok {
		c.kernelHits.Add(1)
		return e.time, e.util
	}
	c.kernelMisses.Add(1)
	e = kernelEntry{time: d.Time(k), util: d.Utilization(k)}
	c.mu.Lock()
	if prev, ok := c.kernels[sig]; ok {
		e = prev // a racer inserted the same pure value first
	} else {
		c.kernels[sig] = e
	}
	c.mu.Unlock()
	return e.time, e.util
}

// TransferTime returns Link.TransferTime of b bytes across l, memoized
// by shape.
func (c *Cache) TransferTime(l gpu.Link, b units.Bytes) units.Millis {
	sig := l.Sig(b)
	c.mu.RLock()
	t, ok := c.transfers[sig]
	c.mu.RUnlock()
	if ok {
		c.transferHits.Add(1)
		return t
	}
	c.transferMisses.Add(1)
	t = l.TransferTime(b)
	c.mu.Lock()
	if prev, ok := c.transfers[sig]; ok {
		t = prev
	} else {
		c.transfers[sig] = t
	}
	c.mu.Unlock()
	return t
}

// StageTime returns Contention.StageTimeItems for the members, memoized
// by shape. The signature preserves member order (see cost.StageSig), so
// the cached value is bit-identical to a direct evaluation.
func (c *Cache) StageTime(ct cost.Contention, items []cost.Item) units.Millis {
	sig := ct.Sig(items)
	c.mu.RLock()
	t, ok := c.stages[sig]
	c.mu.RUnlock()
	if ok {
		c.stageHits.Add(1)
		return t
	}
	c.stageMisses.Add(1)
	t = ct.StageTimeItems(items)
	c.mu.Lock()
	if prev, ok := c.stages[sig]; ok {
		t = prev
	} else {
		c.stages[sig] = t
	}
	c.mu.Unlock()
	return t
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Kernels, Transfers, Stages                int   // distinct cached signatures
	KernelHits, TransferHits, StageHits       int64 // probes answered from cache
	KernelMisses, TransferMisses, StageMisses int64 // probes computed and inserted
}

// Probes returns the total probe count the cache has served.
func (s Stats) Probes() int64 {
	return s.KernelHits + s.KernelMisses +
		s.TransferHits + s.TransferMisses +
		s.StageHits + s.StageMisses
}

// Stats snapshots the cache. Sizes are read under the lock; the counters
// are monotonic atomics (a concurrent probe may be counted before its
// insert is visible, so Hits+Misses can briefly exceed the map sizes —
// never the reverse).
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	s := Stats{Kernels: len(c.kernels), Transfers: len(c.transfers), Stages: len(c.stages)}
	c.mu.RUnlock()
	s.KernelHits = c.kernelHits.Load()
	s.KernelMisses = c.kernelMisses.Load()
	s.TransferHits = c.transferHits.Load()
	s.TransferMisses = c.transferMisses.Load()
	s.StageHits = c.stageHits.Load()
	s.StageMisses = c.stageMisses.Load()
	return s
}

// Reset drops every cached value and zeroes the counters. Results are
// unaffected by when (or whether) this is called — only hit rates are.
func (c *Cache) Reset() {
	// Fresh maps are built before the lock so the critical section is
	// three pointer swaps, not three allocations.
	kernels := make(map[gpu.KernelSig]kernelEntry)
	transfers := make(map[gpu.TransferSig]units.Millis)
	stages := make(map[cost.StageSig]units.Millis)
	c.mu.Lock()
	c.kernels = kernels
	c.transfers = transfers
	c.stages = stages
	c.mu.Unlock()
	c.kernelHits.Store(0)
	c.kernelMisses.Store(0)
	c.transferHits.Store(0)
	c.transferMisses.Store(0)
	c.stageHits.Store(0)
	c.stageMisses.Store(0)
}
