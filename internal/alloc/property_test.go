package alloc

import (
	"fmt"
	"testing"

	"regreloc/internal/rng"
)

// TestFailedAllocContract checks the two halves of the Allocator
// failure contract under random alloc/free sequences, for every
// allocator: a failed Alloc(r) means Alloc(r') fails for every larger
// supported r', and a failed Alloc changes nothing — neither
// FreeRegisters nor any later placement. Each allocator runs in
// lockstep with a shadow twin that sees the same successful operations
// but none of the failed probes; their placements must never diverge.
// The node simulator's admission scan relies on both halves to skip
// candidates that cannot fit without changing a single result.
func TestFailedAllocContract(t *testing.T) {
	type mk struct {
		name   string
		new    func(f int) Allocator
		maxReq int // largest requirement Alloc accepts without panicking
	}
	kinds := []mk{
		{"bitmap", func(f int) Allocator { return NewBitmap(f, 32, FlexibleCosts) }, 32},
		{"fixed", func(f int) Allocator { return NewFixed(f, 32) }, 48},
		{"lookup", func(f int) Allocator { return NewLookup(f, LookupCosts) }, 48},
		{"buddy", func(f int) Allocator { return NewBuddy(f, 4, 32, FlexibleCosts) }, 32},
		{"firstfit", func(f int) Allocator { return NewFirstFit(f, 32, ExactCosts) }, 48},
	}
	for _, k := range kinds {
		for _, f := range []int{64, 128} {
			t.Run(fmt.Sprintf("%s/F=%d", k.name, f), func(t *testing.T) {
				a, shadow := k.new(f), k.new(f)
				src := rng.New(uint64(f))
				var live []Context
				fails := 0
				for step := 0; step < 4000; step++ {
					if len(live) > 0 && src.Intn(3) == 0 {
						i := src.Intn(len(live))
						a.Free(live[i])
						shadow.Free(live[i])
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
						continue
					}
					r := src.IntRange(1, k.maxReq)
					free := a.FreeRegisters()
					ctx, ok := a.Alloc(r)
					sctx, sok := shadow.Alloc(r)
					if ok != sok || ctx != sctx {
						t.Fatalf("step %d: Alloc(%d) = %+v,%v but shadow (no failed probes) = %+v,%v",
							step, r, ctx, ok, sctx, sok)
					}
					if ok {
						live = append(live, ctx)
						continue
					}
					fails++
					if got := a.FreeRegisters(); got != free {
						t.Fatalf("step %d: failed Alloc(%d) changed FreeRegisters %d -> %d", step, r, free, got)
					}
					for r2 := r + 1; r2 <= k.maxReq; r2++ {
						if c, ok := a.Alloc(r2); ok {
							t.Fatalf("step %d: Alloc(%d) failed but larger Alloc(%d) succeeded with %+v", step, r, r2, c)
						}
						if got := a.FreeRegisters(); got != free {
							t.Fatalf("step %d: failed Alloc(%d) changed FreeRegisters %d -> %d", step, r2, free, got)
						}
					}
				}
				if fails < 100 {
					t.Fatalf("only %d failed allocations in the sequence; the property went untested", fails)
				}
			})
		}
	}
}
