package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// span is one timed call into a layer: its name, start and end in
// nanoseconds since the tracer started, the enclosing span (-1 for a
// root), the request it belongs to, and the heap allocations made while
// it was open (runtime.MemStats.Mallocs delta).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Allocs uint64 `json:"allocs"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans in memory around the benchmark's calls into each
// layer. A tracer that is off records nothing and costs one branch per
// call, so the untraced runs that produce the end-to-end metrics share
// the traced runs' code path.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
	names []string // request names, indexed by span.Req
	mem   runtime.MemStats
}

func newTracer() *tracer {
	// Preallocated so that appending a span does not allocate inside an
	// enclosing span's allocation window.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<17), open: make([]int, 0, 16)}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// request names the request the spans that follow belong to.
func (t *tracer) request(name string) {
	if t.on {
		t.names = append(t.names, name)
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	runtime.ReadMemStats(&t.mem)
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: len(t.names) - 1, Allocs: t.mem.Mallocs})
	t.open = append(t.open, id)
	t.spans[id].Start = t.now()
	return id
}

// end closes the span begin returned. Spans close in LIFO order.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	sp := &t.spans[id]
	sp.End = t.now()
	runtime.ReadMemStats(&t.mem)
	sp.Allocs = t.mem.Mallocs - sp.Allocs
	t.open = t.open[:len(t.open)-1]
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.ms())
		}
	}
	return ds
}

// allocs returns the total allocations and the call count of the named
// spans.
func (t *tracer) allocs(name string) (total uint64, calls int) {
	for _, s := range t.spans {
		if s.Name == name {
			total += s.Allocs
			calls++
		}
	}
	return total, calls
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the time its child spans cover.
func (t *tracer) selfTimes() []layerTime {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.ms()
		}
	}
	idx := map[string]int{}
	var rows []layerTime
	for i, s := range t.spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(rows)
			idx[s.Name] = j
			rows = append(rows, layerTime{Name: s.Name})
		}
		rows[j].Calls++
		rows[j].TotalMs += s.ms()
		rows[j].SelfMs += s.ms() - child[i]
	}
	slices.SortFunc(rows, func(a, b layerTime) int {
		switch {
		case a.SelfMs > b.SelfMs:
			return -1
		case a.SelfMs < b.SelfMs:
			return 1
		}
		return 0
	})
	return rows
}

// writeSelfTimes prints the self-time table.
func writeSelfTimes(w io.Writer, rows []layerTime) {
	fmt.Fprintf(w, "%-18s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %8d %12.3f %12.3f\n", r.Name, r.Calls, r.TotalMs, r.SelfMs)
	}
}

// dump writes the self-time table, the request names and the spans as
// JSON.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Self     []layerTime `json:"self_time"`
		Requests []string    `json:"requests"`
		Spans    []span      `json:"spans"`
	}{t.selfTimes(), t.names, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
