// Package sched provides the scheduling data structures of the paper's
// software runtime, in the form the node simulator consumes: the
// circular ring of resident contexts (the linked list of NextRRM masks
// from Section 2.2, generalized to multiple priority classes) and the
// FIFO queue of runnable-but-unloaded threads (the "local thread
// queue" whose insert/remove operations cost 10 cycles in Figure 4).
//
// Both structures sit on the simulator's per-fault hot path, so both
// are engineered to be allocation-free in steady state: the ring keeps
// one list node per thread ID, found by indexing rather than hashing,
// and exposes the zero-allocation Each iterator (Threads, which builds
// a fresh slice, is for inspection only); the FIFO reuses its backing
// array through a head index instead of re-slicing capacity away.
package sched

import (
	"fmt"

	"regreloc/internal/thread"
)

// ringNode is a doubly-linked circular list node.
type ringNode struct {
	t          *thread.Thread
	prev, next *ringNode
}

// Ring is the circular list of resident contexts, mirroring the
// NextRRM chain: the scheduler's round-robin pointer advances through
// it on every context switch. Blocked contexts remain in the ring (the
// hardware has no idea a context is blocked; software probes them),
// matching the switch-and-test behaviour the paper's S=8 switch cost
// allows for.
//
// Threads are keyed by their dense thread.ID, so resident threads must
// have distinct IDs.
type Ring struct {
	cur  *ringNode
	size int
	// nodes[id] is the list node of the thread with that ID, linked in
	// while t is non-nil. A removed thread's node stays in its slot for
	// the next thread with that ID, so load/unload churn stops
	// allocating once the ring has seen every ID of the population.
	nodes []*ringNode
}

// NewRing returns an empty ring.
func NewRing() *Ring { return &Ring{} }

// Len returns the number of resident contexts in the ring.
func (r *Ring) Len() int { return r.size }

// node returns t's list node if t is in the ring, else nil.
func (r *Ring) node(t *thread.Thread) *ringNode {
	if uint(t.ID) < uint(len(r.nodes)) {
		if n := r.nodes[t.ID]; n != nil && n.t == t {
			return n
		}
	}
	return nil
}

// Add inserts t just before the current position (so a full rotation
// visits it last), mirroring a NextRRM link splice. It panics if t, or
// another thread with t's ID, is already in the ring.
func (r *Ring) Add(t *thread.Thread) {
	if t.ID < 0 {
		panic(fmt.Sprintf("sched: thread ID %d is negative", t.ID))
	}
	for t.ID >= len(r.nodes) {
		r.nodes = append(r.nodes, nil)
	}
	n := r.nodes[t.ID]
	if n == nil {
		n = &ringNode{}
		r.nodes[t.ID] = n
	} else if n.t != nil {
		panic(fmt.Sprintf("sched: thread %d already in ring", t.ID))
	}
	n.t = t
	if r.cur == nil {
		n.prev, n.next = n, n
		r.cur = n
	} else {
		n.prev = r.cur.prev
		n.next = r.cur
		n.prev.next = n
		r.cur.prev = n
	}
	r.size++
}

// Remove unlinks t from the ring.
func (r *Ring) Remove(t *thread.Thread) {
	n := r.node(t)
	if n == nil {
		panic(fmt.Sprintf("sched: thread %d not in ring", t.ID))
	}
	r.size--
	if r.size == 0 {
		r.cur = nil
	} else {
		n.prev.next = n.next
		n.next.prev = n.prev
		if r.cur == n {
			r.cur = n.next
		}
	}
	n.t, n.prev, n.next = nil, nil, nil
}

// Current returns the thread at the round-robin pointer, or nil when
// empty.
func (r *Ring) Current() *thread.Thread {
	if r.cur == nil {
		return nil
	}
	return r.cur.t
}

// Advance moves the round-robin pointer to the next context and
// returns its thread, or nil when empty.
func (r *Ring) Advance() *thread.Thread {
	if r.cur == nil {
		return nil
	}
	r.cur = r.cur.next
	return r.cur.t
}

// NextRunnable advances at most Len() positions looking for a runnable
// (ready-resident) thread, starting with the next context. It returns
// the thread and the number of positions advanced, or (nil, Len()) if
// no resident context is runnable. The pointer is left on the returned
// thread (or back where it started on failure after a full rotation).
func (r *Ring) NextRunnable() (*thread.Thread, int) {
	if r.cur == nil {
		return nil, 0
	}
	for i := 1; i <= r.size; i++ {
		r.cur = r.cur.next
		if r.cur.t.Runnable() {
			return r.cur.t, i
		}
	}
	return nil, r.size
}

// Each visits the resident threads in ring order starting at the
// current position, without allocating, stopping early when fn returns
// false. The round-robin pointer does not move. fn may remove the
// thread it is visiting (or mutate thread states) provided it then
// stops the iteration; other structural changes mid-iteration are not
// supported.
func (r *Ring) Each(fn func(*thread.Thread) bool) {
	n := r.cur
	for i := 0; i < r.size; i++ {
		next := n.next
		if !fn(n.t) {
			return
		}
		n = next
	}
}

// Threads returns the resident threads in ring order starting at the
// current position. It allocates a fresh slice per call: use it for
// inspection and tests, and Each on hot paths.
func (r *Ring) Threads() []*thread.Thread {
	out := make([]*thread.Thread, 0, r.size)
	r.Each(func(t *thread.Thread) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Contains reports whether t is in the ring.
func (r *Ring) Contains(t *thread.Thread) bool { return r.node(t) != nil }

// FIFO is the local thread queue of runnable-but-unloaded threads. The
// zero value is an empty queue. Popped slots are reused: the backing
// array is compacted instead of re-sliced away, so a long-running
// simulation's push/pop churn settles into zero allocations.
type FIFO struct {
	items []*thread.Thread
	head  int
	// minRegs caches MinRegs; minDirty forces a rescan after the
	// cached minimum may have left the queue.
	minRegs  int
	minDirty bool
}

// Len returns the queue length.
func (q *FIFO) Len() int { return len(q.items) - q.head }

// Push appends t.
func (q *FIFO) Push(t *thread.Thread) {
	if !q.minDirty && (q.Len() == 0 || t.Regs < q.minRegs) {
		q.minRegs = t.Regs
	}
	q.items = append(q.items, t)
}

// Pop removes and returns the head, or nil when empty.
func (q *FIFO) Pop() *thread.Thread {
	if q.Len() == 0 {
		return nil
	}
	return q.RemoveAt(0)
}

// Peek returns the head without removing it, or nil when empty.
func (q *FIFO) Peek() *thread.Thread {
	if q.Len() == 0 {
		return nil
	}
	return q.items[q.head]
}

// Queued returns the queued threads, oldest first, for a scan in
// place; the runtime's first-fit admission walks it to find the oldest
// thread whose context can be allocated (scheduling order is under
// software control, Section 2.2). The slice aliases the queue: it is
// valid until the next Push or removal, and must not be modified.
func (q *FIFO) Queued() []*thread.Thread { return q.items[q.head:] }

// RemoveAt removes and returns Queued()[i], keeping the others in
// order. It shifts whichever side of i is shorter, so removing the
// head is O(1).
func (q *FIFO) RemoveAt(i int) *thread.Thread {
	i += q.head
	t := q.items[i]
	if i-q.head < len(q.items)-1-i {
		copy(q.items[q.head+1:i+1], q.items[q.head:i])
		q.items[q.head] = nil
		q.head++
	} else {
		copy(q.items[i:], q.items[i+1:])
		q.items[len(q.items)-1] = nil
		q.items = q.items[:len(q.items)-1]
	}
	q.compact()
	q.dropMin(t)
	return t
}

// MinRegs returns the smallest register requirement among queued
// threads, or 0 when empty. The runtime calls it on every admission
// pass to decide whether any queued thread could possibly fit, so the
// value is cached: pushes maintain it incrementally and only a pop
// that removes the current minimum forces a rescan.
func (q *FIFO) MinRegs() int {
	if q.Len() == 0 {
		return 0
	}
	if q.minDirty {
		min := 0
		for _, t := range q.items[q.head:] {
			if min == 0 || t.Regs < min {
				min = t.Regs
			}
		}
		q.minRegs = min
		q.minDirty = false
	}
	return q.minRegs
}

// dropMin invalidates the cached minimum if the removed thread could
// have been carrying it.
func (q *FIFO) dropMin(t *thread.Thread) {
	if !q.minDirty && t.Regs == q.minRegs {
		q.minDirty = true
	}
}

// compact reclaims the popped prefix once it dominates the backing
// array, keeping the array from growing without bound when the queue
// never fully drains.
func (q *FIFO) compact() {
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
		return
	}
	if q.head > 32 && q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = q.items[:n]
		q.head = 0
	}
}
