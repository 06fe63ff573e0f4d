package experiment

import (
	"fmt"

	"regreloc/internal/alloc"
	"regreloc/internal/node"
	"regreloc/internal/policy"
)

func init() {
	exact := archSpec{"flexible-exact", func(f int) node.Config {
		return node.Config{
			Name:        "flexible-exact",
			NewAlloc:    func() alloc.Allocator { return alloc.NewFirstFit(f, 64, alloc.ExactCosts) },
			Policy:      policy.Never{},
			SwitchCost:  6,
			QueueOpCost: 10,
		}
	}}
	registerAblation(&gridSweep{
		id:    "ablation-rounding",
		title: "Section 4 ablation: OR (power-of-two) vs ADD (exact) relocation",
		description: "Compares the paper's OR relocation (contexts rounded to " +
			"powers of two, cheap bitmap allocation) with Am29000-style ADD " +
			"relocation (exact context sizes, no alignment, costlier free-list " +
			"allocation) and the fixed baseline, on the Figure 5 cache-fault " +
			"workload. Reports efficiency and the time-averaged registers " +
			"wasted to rounding.",
		notes: []string{
			"The paper argues OR is worth the power-of-two constraint: ADD",
			"is slower hardware and needs more complex allocation software",
			"(modeled as 40/20/15-cycle operations vs the bitmap's 25/15/5).",
			"Exact sizing buys more resident contexts; whether that wins",
			"depends on how allocation-bound the workload is.",
		},
		f: fileSizes, r: []int{8, 32}, l: cacheLs,
		spec:  cacheFaultSpec,
		archs: []archSpec{fixedArch(6, policy.Never{}), flexArch(6, policy.Never{}), exact},
	}, func(r *Report) {
		// Summarize waste per architecture at F=128 (where rounding
		// pressure is most visible).
		waste := map[string]float64{}
		count := map[string]int{}
		for _, p := range r.Points {
			if p.F == 128 {
				waste[p.Arch] += p.Res.AvgWastedRegs
				count[p.Arch]++
			}
		}
		for _, arch := range []string{"fixed", "flexible", "flexible-exact"} {
			if count[arch] > 0 {
				r.Notes = append(r.Notes, fmt.Sprintf(
					"F=128 mean wasted registers (%s): %.1f", arch, waste[arch]/float64(count[arch])))
			}
		}
	})
}
