// Package des holds the deterministic event queue of the repository's
// discrete-event simulators: the stage-level simulator in internal/sim
// and the serving engine in internal/cluster both run on EventHeap, so
// the (time, sequence) total order — the heart of the byte-identical
// replay contract (DESIGN.md §7, §9) — is implemented once.
//
// EventHeap does not satisfy container/heap: that interface would box
// one element per operation in the simulators' event loops (7523
// against 98 allocs/op on BenchmarkServeEDF when this was measured), so
// it is a typed binary heap with the sift loops written out.
package des

import "github.com/shus-lab/hios/internal/units"

// timed pairs an event payload with its total-order key.
type timed[E any] struct {
	at      units.Millis
	seq     int
	payload E
}

// EventHeap is a deterministic discrete-event queue: a typed binary
// min-heap ordered by (time, push sequence). The sequence number is
// assigned internally at Push, so simultaneous events pop in push order
// and the pop sequence is a pure function of the push sequence — no
// caller can accidentally break the total order.
type EventHeap[E any] struct {
	items []timed[E]
	seq   int
}

// Len returns the number of queued events.
func (h *EventHeap[E]) Len() int { return len(h.items) }

// Push queues payload at time at, after every event already queued for
// the same instant.
func (h *EventHeap[E]) Push(at units.Millis, payload E) {
	h.items = append(h.items, timed[E]{at: at, seq: h.seq, payload: payload})
	h.seq++
	h.up(len(h.items) - 1)
}

// Pop removes and returns the earliest event: its time and payload.
func (h *EventHeap[E]) Pop() (units.Millis, E) {
	s := h.items
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	x := s[n]
	h.items = s[:n]
	if n > 0 {
		h.down(0)
	}
	return x.at, x.payload
}

func (h *EventHeap[E]) less(i, j int) bool {
	// Exact IEEE inequality keeps the order strict-weak; ties fall
	// through to the deterministic sequence number.
	if h.items[i].at != h.items[j].at { //lint:floatexact comparator tie-break: epsilon would break the strict weak order
		return h.items[i].at < h.items[j].at
	}
	return h.items[i].seq < h.items[j].seq
}

func (h *EventHeap[E]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *EventHeap[E]) down(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}
