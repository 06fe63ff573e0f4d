// Package policy implements thread unloading policies. The paper's
// synchronization experiments (Section 3.3) use a competitive
// two-phase algorithm (citing Lim & Agarwal): a blocked context is
// polled until the cycles wasted polling it equal the cost of
// unloading and blocking it, then it is unloaded. The cache-fault
// experiments (Section 3.2) never unload, "to avoid effects due to the
// selection of a particular thread unloading policy".
package policy

import (
	"math"

	"regreloc/internal/thread"
)

// Unload decides when a blocked resident thread should be unloaded,
// stated as the poll cost at which it unloads. The node simulator
// consults it whenever it probes a blocked context, and uses the same
// threshold to fast-forward whole probe rounds that cannot unload
// anybody.
type Unload interface {
	// UnloadAt returns the accumulated polling cost at which t
	// (blocked, resident) is unloaded: a probe that brings t.PollCost
	// to at least this value unloads it. math.MaxInt64 means never.
	UnloadAt(t *thread.Thread) int64
	// Name identifies the policy in experiment output.
	Name() string
}

// ShouldUnload reports whether p unloads t given the polling cost
// accumulated on the thread.
func ShouldUnload(p Unload, t *thread.Thread) bool {
	return t.PollCost >= p.UnloadAt(t)
}

// Never keeps every context resident forever (Section 3.2).
type Never struct{}

// UnloadAt implements Unload: never.
func (Never) UnloadAt(*thread.Thread) int64 { return math.MaxInt64 }

// Name implements Unload.
func (Never) Name() string { return "never" }

// TwoPhase is the competitive two-phase algorithm (Section 3.3): a
// context is unloaded once the cost of repeated unsuccessful attempts
// to continue execution equals the cost of unloading and blocking it.
// The unload cost depends on the thread's register requirement C
// (Section 2.5), so larger contexts are polled longer before eviction
// — exactly the classic competitive ski-rental threshold.
type TwoPhase struct{}

// UnloadAt implements Unload: the thread's unload cost.
func (TwoPhase) UnloadAt(t *thread.Thread) int64 { return t.UnloadCost() }

// Name implements Unload.
func (TwoPhase) Name() string { return "two-phase" }

// Always unloads a blocked context at the first probe — an ablation
// extreme that maximizes register availability at maximum load/unload
// churn.
type Always struct{}

// UnloadAt implements Unload: at the first probe.
func (Always) UnloadAt(*thread.Thread) int64 { return 0 }

// Name implements Unload.
func (Always) Name() string { return "always" }
