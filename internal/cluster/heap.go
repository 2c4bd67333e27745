package cluster

// The typed heaps of the engine's replica pools. Like des.EventHeap they
// do not satisfy container/heap, whose interface would box one element
// per operation in the dispatch loop.

import "github.com/shus-lab/hios/internal/units"

// replicaHeap is a min-heap of replica indices: the idle set of one
// replica pool. Popping the smallest index keeps replica selection
// deterministic and stable under scale-up (new replicas get the highest
// indices and are used last).
type replicaHeap struct {
	items []int
}

// Len returns the number of idle replicas.
func (h *replicaHeap) Len() int { return len(h.items) }

// Push returns a replica to the idle set.
func (h *replicaHeap) Push(v int) {
	h.items = append(h.items, v)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[i] >= h.items[p] {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

// Pop removes and returns the lowest idle replica index.
func (h *replicaHeap) Pop() int {
	s := h.items
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	x := s[n]
	h.items = s[:n]
	i, m := 0, n
	for {
		l := 2*i + 1
		if l >= m {
			break
		}
		j := l
		if r := l + 1; r < m && s[r] < s[l] {
			j = r
		}
		if s[j] >= s[i] {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	return x
}

// qitem is one queued request reference with its ordering key.
type qitem struct {
	deadline units.Millis
	seq      int
	ref      int
}

// requestQueue is one replica pool's pending-request queue: a min-heap
// over (absolute deadline, enqueue sequence) when byDeadline is set
// (EDF), or plain enqueue sequence otherwise (FIFO). The keys are stored
// by value with the reference, so ordering never dereferences the
// caller's request table.
type requestQueue struct {
	byDeadline bool // EDF ordering; false is FIFO
	items      []qitem
}

// Len returns the number of queued requests.
func (q *requestQueue) Len() int { return len(q.items) }

// Push queues the request identified by ref with the given absolute
// deadline and enqueue sequence number (the FIFO key and EDF tie-break).
func (q *requestQueue) Push(deadline units.Millis, seq, ref int) {
	q.items = append(q.items, qitem{deadline: deadline, seq: seq, ref: ref})
	q.up(len(q.items) - 1)
}

// Pop removes and returns the reference of the first request in queue
// order.
func (q *requestQueue) Pop() int {
	s := q.items
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	x := s[n]
	q.items = s[:n]
	if n > 0 {
		q.down(0)
	}
	return x.ref
}

func (q *requestQueue) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if q.byDeadline {
		// Exact IEEE inequality; equal deadlines fall through to the
		// deterministic enqueue order.
		if a.deadline != b.deadline { //lint:floatexact comparator tie-break: epsilon would break the strict weak order
			return a.deadline < b.deadline
		}
	}
	return a.seq < b.seq
}

func (q *requestQueue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *requestQueue) down(i int) {
	n := len(q.items)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.less(r, l) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		i = j
	}
}
