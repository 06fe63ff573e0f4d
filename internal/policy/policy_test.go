package policy

import (
	"math"
	"testing"

	"regreloc/internal/rng"
	"regreloc/internal/thread"
)

func TestNever(t *testing.T) {
	th := thread.New(0, 8, 100)
	th.PollCost = 1 << 40
	if ShouldUnload(Never{}, th) {
		t.Error("Never unloaded a thread")
	}
	if (Never{}).Name() != "never" {
		t.Error("name")
	}
}

func TestAlways(t *testing.T) {
	th := thread.New(0, 8, 100)
	if !ShouldUnload(Always{}, th) {
		t.Error("Always kept a thread")
	}
	if (Always{}).Name() != "always" {
		t.Error("name")
	}
}

func TestTwoPhaseThreshold(t *testing.T) {
	// Competitive rule: unload once polling cost reaches the unload
	// cost C + 10.
	th := thread.New(0, 14, 100) // unload cost 24
	p := TwoPhase{}
	th.PollCost = 23
	if ShouldUnload(p, th) {
		t.Error("unloaded below threshold")
	}
	th.PollCost = 24
	if !ShouldUnload(p, th) {
		t.Error("kept at threshold")
	}
	if p.Name() != "two-phase" {
		t.Error("name")
	}
}

func TestTwoPhaseLargerContextsPolledLonger(t *testing.T) {
	// A thread with more registers has a higher eviction threshold —
	// the ski-rental constant scales with its unload cost.
	small := thread.New(0, 6, 100)
	large := thread.New(1, 24, 100)
	p := TwoPhase{}
	small.PollCost, large.PollCost = 16, 16
	if !ShouldUnload(p, small) {
		t.Error("small context not unloaded at its threshold")
	}
	if ShouldUnload(p, large) {
		t.Error("large context unloaded before its threshold")
	}
}

func TestTwoPhaseCompetitiveRatio(t *testing.T) {
	// The classic ski-rental guarantee, in the paper's cost model
	// ("the cost of repeated, unsuccessful attempts to continue
	// execution equals the cost of unloading and blocking the
	// context"): for any fault latency, polling until the accumulated
	// cost reaches the unload cost and then evicting pays at most
	// twice the offline optimum, which knows the latency and either
	// waits it out or blocks immediately. Reload costs are paid by
	// every evicting strategy alike and are excluded on both sides.
	src := rng.New(99)
	p := TwoPhase{}
	const probeCost = 8
	for trial := 0; trial < 2000; trial++ {
		th := thread.New(0, src.IntRange(6, 24), 100)
		unloadCost := th.UnloadCost()
		latency := int64(src.IntRange(1, 4000))

		// Online: probe every probeCost cycles of wasted time.
		var online int64
		waited := int64(0)
		for {
			if waited >= latency {
				// Fault completed before eviction: cost = polls so far.
				break
			}
			if ShouldUnload(p, th) {
				online += unloadCost
				break
			}
			th.PollCost += probeCost
			online += probeCost
			waited += probeCost
		}

		// Offline optimum: wait out the fault (paying the covering
		// polls) or block immediately, whichever is cheaper.
		waitCost := (latency + probeCost - 1) / probeCost * probeCost
		optimal := waitCost
		if unloadCost < optimal {
			optimal = unloadCost
		}

		// 2x plus one probe of discretization slack.
		if online > 2*optimal+probeCost {
			t.Fatalf("trial %d (C=%d, latency=%d): online %d > 2x optimal %d",
				trial, th.Regs, latency, online, optimal)
		}
	}
}

func TestUnloadAtThresholds(t *testing.T) {
	th := thread.New(0, 14, 100)
	if got := (Never{}).UnloadAt(th); got != math.MaxInt64 {
		t.Errorf("Never.UnloadAt = %d, want MaxInt64", got)
	}
	if got := (TwoPhase{}).UnloadAt(th); got != th.UnloadCost() {
		t.Errorf("TwoPhase.UnloadAt = %d, want the unload cost %d", got, th.UnloadCost())
	}
	if got := (Always{}).UnloadAt(th); got != 0 {
		t.Errorf("Always.UnloadAt = %d, want 0", got)
	}
}
