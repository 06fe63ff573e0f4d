package sched

import (
	"testing"

	"regreloc/internal/thread"
)

func mkThreads(n int) []*thread.Thread {
	out := make([]*thread.Thread, n)
	for i := range out {
		out[i] = thread.New(i, 8, 100)
		out[i].State = thread.ReadyResident
	}
	return out
}

func TestRingAddAdvance(t *testing.T) {
	r := NewRing()
	if r.Current() != nil || r.Advance() != nil || r.Len() != 0 {
		t.Fatal("empty ring misbehaves")
	}
	ths := mkThreads(3)
	for _, th := range ths {
		r.Add(th)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	// Ring order: starting at current, a full rotation hits all three
	// exactly once.
	seen := map[int]bool{r.Current().ID: true}
	for i := 0; i < 2; i++ {
		seen[r.Advance().ID] = true
	}
	if len(seen) != 3 {
		t.Errorf("rotation visited %d distinct threads", len(seen))
	}
	// Fourth advance wraps to the starting thread.
	start := r.Advance()
	if !seen[start.ID] {
		t.Error("wrap-around broken")
	}
}

func TestRingRemove(t *testing.T) {
	r := NewRing()
	ths := mkThreads(3)
	for _, th := range ths {
		r.Add(th)
	}
	cur := r.Current()
	r.Remove(cur)
	if r.Len() != 2 || r.Contains(cur) {
		t.Fatal("remove failed")
	}
	// Current moved to the next node.
	if r.Current() == cur {
		t.Error("current still points at removed node")
	}
	r.Remove(r.Current())
	r.Remove(r.Current())
	if r.Len() != 0 || r.Current() != nil {
		t.Error("ring not empty after removing all")
	}
}

func TestRingDuplicateAddPanics(t *testing.T) {
	r := NewRing()
	th := mkThreads(1)[0]
	r.Add(th)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate add did not panic")
		}
	}()
	r.Add(th)
}

func TestRingRemoveMissingPanics(t *testing.T) {
	r := NewRing()
	defer func() {
		if recover() == nil {
			t.Fatal("remove of absent thread did not panic")
		}
	}()
	r.Remove(mkThreads(1)[0])
}

func TestNextRunnableSkipsBlocked(t *testing.T) {
	r := NewRing()
	ths := mkThreads(4)
	for _, th := range ths {
		r.Add(th)
	}
	// Block everyone except one.
	cur := r.Current()
	var target *thread.Thread
	for _, th := range ths {
		if th != cur {
			th.State = thread.BlockedResident
		}
	}
	cur.State = thread.BlockedResident
	target = ths[2]
	target.State = thread.ReadyResident

	got, steps := r.NextRunnable()
	if got != target {
		t.Fatalf("NextRunnable = thread %v", got)
	}
	if steps < 1 || steps > 4 {
		t.Errorf("steps = %d", steps)
	}
	// Pointer now rests on the runnable thread.
	if r.Current() != target {
		t.Error("pointer not left on runnable thread")
	}
}

func TestNextRunnableAllBlocked(t *testing.T) {
	r := NewRing()
	ths := mkThreads(3)
	for _, th := range ths {
		th.State = thread.BlockedResident
		r.Add(th)
	}
	got, steps := r.NextRunnable()
	if got != nil || steps != 3 {
		t.Errorf("NextRunnable = %v, %d", got, steps)
	}
}

func TestNextRunnableEmptyRing(t *testing.T) {
	r := NewRing()
	if got, steps := r.NextRunnable(); got != nil || steps != 0 {
		t.Errorf("empty ring NextRunnable = %v, %d", got, steps)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Repeatedly advancing and "running" threads visits everyone
	// equally: the core scheduling property of the NextRRM ring.
	r := NewRing()
	ths := mkThreads(5)
	for _, th := range ths {
		r.Add(th)
	}
	counts := make(map[int]int)
	for i := 0; i < 5*100; i++ {
		th, _ := r.NextRunnable()
		counts[th.ID]++
	}
	for id, c := range counts {
		if c != 100 {
			t.Errorf("thread %d scheduled %d times, want 100", id, c)
		}
	}
}

func TestThreadsSnapshot(t *testing.T) {
	r := NewRing()
	ths := mkThreads(3)
	for _, th := range ths {
		r.Add(th)
	}
	snap := r.Threads()
	if len(snap) != 3 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	if snap[0] != r.Current() {
		t.Error("snapshot does not start at current")
	}
	if NewRing().Threads() == nil {
		t.Error("empty snapshot should be non-nil empty slice")
	}
}

func TestFIFO(t *testing.T) {
	var q FIFO
	if q.Pop() != nil || q.Peek() != nil || q.Len() != 0 {
		t.Fatal("empty FIFO misbehaves")
	}
	ths := mkThreads(3)
	for _, th := range ths {
		q.Push(th)
	}
	if q.Peek() != ths[0] {
		t.Error("peek")
	}
	for i := 0; i < 3; i++ {
		if got := q.Pop(); got != ths[i] {
			t.Fatalf("pop %d = thread %v", i, got.ID)
		}
	}
	if q.Len() != 0 {
		t.Error("not empty after draining")
	}
}

// TestRingKeysByThreadID pins the ID-indexed ring: a removed thread's
// slot serves the next thread with that ID, a different thread with a
// resident thread's ID is not "in" the ring, and it cannot join it.
func TestRingKeysByThreadID(t *testing.T) {
	r := NewRing()
	ths := mkThreads(3)
	for _, th := range ths {
		r.Add(th)
	}
	r.Remove(ths[1])
	other := thread.New(1, 8, 100)
	r.Add(other)
	if !r.Contains(other) || r.Contains(ths[1]) || r.Len() != 3 {
		t.Fatalf("after swapping ID 1: contains new=%v old=%v len=%d", r.Contains(other), r.Contains(ths[1]), r.Len())
	}
	if got := r.Threads(); got[len(got)-1] != other {
		t.Errorf("re-added thread is not last in ring order: %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("adding a second thread with a resident ID did not panic")
			}
		}()
		r.Add(thread.New(2, 8, 100))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("removing a non-resident thread with a resident ID did not panic")
			}
		}()
		r.Remove(ths[1])
	}()
}

func TestFIFORemoveAt(t *testing.T) {
	var q FIFO
	ths := make([]*thread.Thread, 6)
	for i := range ths {
		ths[i] = thread.New(i, 10-i, 100) // Regs 10, 9, ..., 5
		q.Push(ths[i])
	}
	want := func(ids ...int) {
		t.Helper()
		got := q.Queued()
		if len(got) != len(ids) || q.Len() != len(ids) {
			t.Fatalf("queue %v, want IDs %v", got, ids)
		}
		for i, id := range ids {
			if got[i].ID != id {
				t.Fatalf("queue position %d holds %d, want IDs %v", i, got[i].ID, ids)
			}
		}
	}
	if q.RemoveAt(1) != ths[1] { // near the head: shifts the prefix
		t.Fatal("RemoveAt(1)")
	}
	want(0, 2, 3, 4, 5)
	if q.RemoveAt(3) != ths[4] { // near the tail: shifts the suffix
		t.Fatal("RemoveAt(3)")
	}
	want(0, 2, 3, 5)
	if q.RemoveAt(3) != ths[5] || q.MinRegs() != 7 {
		t.Fatalf("removing the minimum left MinRegs %d, want 7", q.MinRegs())
	}
	want(0, 2, 3)
	if q.RemoveAt(0) != ths[0] || q.Peek() != ths[2] {
		t.Fatal("RemoveAt(0) is not Pop")
	}
	want(2, 3)
}
