package node

import (
	"testing"

	"regreloc/internal/policy"
	"regreloc/internal/workload"
)

func benchRun(b *testing.B, cfg Config, spec workload.Spec) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		res := Run(cfg, spec, uint64(i+1))
		cycles += res.Full.Total()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
}

func BenchmarkRunCacheFaults(b *testing.B) {
	benchRun(b, FlexibleConfig(128, policy.Never{}, 6),
		workload.CacheFaults(32, 256, workload.PaperCtxSize(), 32, 8000))
}

func BenchmarkRunSyncFaults(b *testing.B) {
	benchRun(b, FlexibleConfig(128, policy.TwoPhase{}, 8),
		workload.SyncFaults(32, 512, workload.PaperCtxSize(), 32, 8000))
}

func BenchmarkRunChurnRegime(b *testing.B) {
	benchRun(b, FlexibleConfig(64, policy.TwoPhase{}, 8),
		workload.SyncFaults(32, 2048, workload.PaperCtxSize(), 32, 4000))
}

// BenchmarkRunColdSweepCells runs the cells that dominate the
// benchmark's cold-sweep workload, at quick scale (32 threads, work
// max(100·R, 2000)): figure5's F=64 R=8 L=128 with the never-unload
// policy and figure6's F=64 R=32 L=512 with two-phase unloading, each
// on the fixed and the flexible architecture. One op is all four
// cells; probes/op shows how much of the run is spin-probing.
func BenchmarkRunColdSweepCells(b *testing.B) {
	type cell struct {
		cfg  Config
		spec workload.Spec
	}
	cells := []cell{
		{FixedConfig(64, policy.Never{}, 6), workload.CacheFaults(8, 128, workload.PaperCtxSize(), 32, 2000)},
		{FlexibleConfig(64, policy.Never{}, 6), workload.CacheFaults(8, 128, workload.PaperCtxSize(), 32, 2000)},
		{FixedConfig(64, policy.TwoPhase{}, 8), workload.SyncFaults(32, 512, workload.PaperCtxSize(), 32, 3200)},
		{FlexibleConfig(64, policy.TwoPhase{}, 8), workload.SyncFaults(32, 512, workload.PaperCtxSize(), 32, 3200)},
	}
	var cycles, probes int64
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			res := Run(c.cfg, c.spec, uint64(i+1))
			cycles += res.Full.Total()
			probes += res.Probes
		}
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
}

// BenchmarkRunColdSweepMix runs every distinct cell of the benchmark's
// two cold-sweep grid shapes at quick scale (32 threads, work
// max(100·R, 2000)), so it weighs the probe-heavy figure5 cells and
// figure6's admission- and unload-heavy churn cells as the workload
// does: figure5 is F=64, R ∈ {8, 32}, L ∈ {16, 32, 64, 128} under the
// never-unload policy with S=6; figure6 is F=64, R ∈ {32, 128},
// L ∈ {64, 128, 256, 512} under two-phase unloading with S=8. Each
// runs on the fixed and the flexible architecture: 32 cells per op.
func BenchmarkRunColdSweepMix(b *testing.B) {
	type cell struct {
		cfg  Config
		spec workload.Spec
	}
	work := func(r int) int64 { return max(100*int64(r), 2000) }
	var cells []cell
	for _, r := range []int{8, 32} {
		for _, l := range []int{16, 32, 64, 128} {
			spec := workload.CacheFaults(r, l, workload.PaperCtxSize(), 32, work(r))
			cells = append(cells,
				cell{FixedConfig(64, policy.Never{}, 6), spec},
				cell{FlexibleConfig(64, policy.Never{}, 6), spec})
		}
	}
	for _, r := range []int{32, 128} {
		for _, l := range []int{64, 128, 256, 512} {
			spec := workload.SyncFaults(r, l, workload.PaperCtxSize(), 32, work(r))
			cells = append(cells,
				cell{FixedConfig(64, policy.TwoPhase{}, 8), spec},
				cell{FlexibleConfig(64, policy.TwoPhase{}, 8), spec})
		}
	}
	var cycles int64
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			cycles += Run(c.cfg, c.spec, uint64(i+1)).Full.Total()
		}
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cells)), "ns/cell")
}
