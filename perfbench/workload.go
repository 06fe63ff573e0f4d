package main

import (
	"io"
	"log"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"regreloc/internal/serve"
)

// item is one generated request plus what the generator meant by it.
type item struct {
	req   serve.Request
	kind  string // "grid", "repeat", "write" or "adaptive"
	cells int    // sweep cells the request addresses
}

// generator yields a workload's requests in index order. The sequence
// is a pure function of the workload seed, so two runs with the same
// seed send the same requests in the same order; only the daemon's
// timing differs.
type generator interface {
	next() item
}

// workload describes one traffic mix: how requests are generated and
// paced, how the daemon is configured, and what a run must check.
type workload struct {
	name string
	// closed selects a closed loop (each client sends its next request
	// when the previous one completes); otherwise requests arrive on a
	// seeded schedule at rate per second, timed from when each was due.
	closed bool
	rate   float64
	// limit is the latency limit behind slo_met_frac, applied to the
	// time to result, or to the first answer when limitOnFirst is set.
	limit        time.Duration
	limitOnFirst bool
	// tailQ is the quantile reported as the *_tail_ms metrics, fixed so
	// that a run of the benchmark's length has at least ten samples
	// beyond it.
	tailQ float64
	// verifyEvery = 1 checks every delivered report against the
	// reference; n > 1 checks a seeded one-in-n sample.
	verifyEvery int
	config      func() serve.Config
	// warm runs after boot as part of set-up, before the measured phase.
	warm func(c *client, seed uint64) error
	gen  func(seed uint64) generator
}

// clients is the number of client connections every workload uses.
const clients = 2

// workloads are the benchmark's traffic mixes; perfbench/README.md
// gives each one's reasons at length.
var workloads = map[string]*workload{
	// Simulation-bound: every cell is new, so node.Run dominates and the
	// point store only takes writes. A warm-path change must read flat.
	"cold-sweep": {
		name:        "cold-sweep",
		closed:      true,
		limit:       250 * time.Millisecond,
		tailQ:       0.95,
		verifyEvery: 10,
		config: func() serve.Config {
			c := baseConfig()
			// Far below the run's output, so CLOCK eviction runs for the
			// whole measured phase.
			c.PointCacheBytes = 64 << 10
			return c
		},
		warm: func(c *client, seed uint64) error {
			return c.runAll(freshGrids(seed, "sim", clients))
		},
		gen: func(seed uint64) generator { return &freshGen{seed: seed, salt: saltCold, fidelity: "sim"} },
	},
	// Assembly-bound: interactive users re-querying overlapping grids,
	// served from the point store and the report cache. A simulator
	// change should move only set-up and the write-driven tail.
	"warm-dashboard": {
		name:        "warm-dashboard",
		rate:        80,
		limit:       100 * time.Millisecond,
		tailQ:       0.95,
		verifyEvery: 1,
		config:      baseConfig,
		warm: func(c *client, seed uint64) error {
			var pool []serve.Request
			for _, s := range poolSeeds(seed) {
				for _, e := range dashboardExperiments {
					pool = append(pool, serve.Request{Experiment: e.id, Seed: s, Scale: "quick"})
				}
			}
			return c.runAll(pool)
		},
		gen: newDashboardGen,
	},
	// The only traffic through the analytic backend and the streamed
	// refinement, where background simulation competes with the submit
	// path.
	"adaptive-first-answer": {
		name:         "adaptive-first-answer",
		rate:         19,
		limit:        100 * time.Millisecond,
		limitOnFirst: true,
		tailQ:        0.90,
		verifyEvery:  1,
		config:       baseConfig,
		warm: func(c *client, seed uint64) error {
			return c.runAll(freshGrids(seed, "adaptive", clients))
		},
		gen: func(seed uint64) generator {
			return &freshGen{seed: seed, salt: saltAdaptive, fidelity: "adaptive"}
		},
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// baseConfig is the daemon configuration shared by every workload: two
// job workers, one engine worker per job (two cores in all), and quiet
// logs. Fields left zero keep the serve package defaults.
func baseConfig() serve.Config {
	return serve.Config{
		QueueCap:     64,
		Workers:      2,
		PointWorkers: 1,
		JobTimeout:   time.Minute,
		Logger:       log.New(io.Discard, "", 0),
	}
}

// Seed namespaces, so that no two request streams share a seed.
const (
	saltCold uint64 = iota + 1
	saltAdaptive
	saltWarm
	saltPool
	saltDashboard
	saltVerify
)

// mix derives an independent 64-bit value from a seed and a salt
// (SplitMix64 finalizer).
func mix(seed, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// The 16-cell quick grids of the fresh-seed workloads: 1 F x 2 R x 4 L
// x 2 architectures. figure5 (cache faults, contexts never unloaded)
// is probe-heavy; figure6 (synchronization faults, two-phase
// unloading) is allocation- and unload-heavy.
var freshShapes = []serve.Request{
	{Experiment: "figure5", F: []int{64}, R: []int{8, 32}, L: []int{16, 32, 64, 128}},
	{Experiment: "figure6", F: []int{64}, R: []int{32, 128}, L: []int{64, 128, 256, 512}},
}

// freshGen alternates the two 16-cell grids, each under a seed never
// used before, so every request misses every cache.
type freshGen struct {
	seed, salt uint64
	fidelity   string
	i          uint64
}

func (g *freshGen) next() item {
	shape := freshShapes[g.i%uint64(len(freshShapes))]
	req := serve.Request{
		Experiment: shape.Experiment,
		Seed:       mix(mix(g.seed, g.salt), g.i),
		Scale:      "quick",
		F:          shape.F, R: shape.R, L: shape.L,
	}
	if g.fidelity != "sim" {
		req.Fidelity = g.fidelity
	}
	g.i++
	kind := "grid"
	if g.fidelity == "adaptive" {
		kind = "adaptive"
	}
	return item{req: req, kind: kind, cells: len(req.F) * len(req.R) * len(req.L) * 2}
}

// freshGrids returns n requests of a fresh-seed stream, for set-up.
func freshGrids(seed uint64, fidelity string, n int) []serve.Request {
	g := &freshGen{seed: seed, salt: saltWarm, fidelity: fidelity}
	out := make([]serve.Request, n)
	for i := range out {
		out[i] = g.next().req
	}
	return out
}

// dashboardExperiments are the default grids the warm-dashboard pool
// holds (serve's defaults: F = 64/128/256 for both figures).
var dashboardExperiments = []struct {
	id   string
	f, r []int
	l    []int
}{
	{"figure5", []int{64, 128, 256}, []int{8, 32, 128}, []int{16, 32, 64, 128, 256, 512}},
	{"figure6", []int{64, 128, 256}, []int{32, 128, 512}, []int{64, 128, 256, 512, 1024}},
}

// poolSeeds are the seeds whose default grids set-up puts in the
// point store.
func poolSeeds(seed uint64) []uint64 {
	out := make([]uint64, 3)
	for i := range out {
		out[i] = mix(mix(seed, saltPool), uint64(i))
	}
	return out
}

// The warm-dashboard mix, fixed per block of mixBlock consecutive
// requests at seeded positions: mixRepeats exactly repeat an earlier
// request (report-cache hits), mixWrites add one never-seen L value to a
// sub-grid of every F and the experiment's smallest R (six cells
// simulated and stored next to the reads, about the same work every
// time), and the rest are fresh sub-grids
// of pooled grids, assembled inline from the store. Fixing the counts
// keeps the share of each kind identical across seeds; the writes are
// the slowest kind, so they set the tail.
const (
	mixBlock   = 10
	mixRepeats = 2
	mixWrites  = 1
	writeShare = float64(mixWrites) / mixBlock
	// repeatGap keeps a repeat away from the requests just before it,
	// so the original has normally finished and the repeat is a cache
	// hit rather than a coalesced rider.
	repeatGap = 20
	// firstFreshL is where the writes' never-seen latencies start.
	firstFreshL = 100
)

// dashboardGen draws sub-grids of the pooled default grids: a random
// subset, in random order, of each axis.
type dashboardGen struct {
	rng     *rand.Rand
	pool    []uint64
	history []item
	usedL   map[int]bool
	nextL   int
	block   []string // kinds of the rest of the current block
}

func newDashboardGen(seed uint64) generator {
	used := map[int]bool{}
	for _, e := range dashboardExperiments {
		for _, l := range e.l {
			used[l] = true
		}
	}
	return &dashboardGen{
		rng:   rand.New(rand.NewPCG(seed, saltDashboard)),
		pool:  poolSeeds(seed),
		usedL: used,
		nextL: firstFreshL,
	}
}

func (g *dashboardGen) next() item {
	if len(g.block) == 0 {
		g.block = make([]string, mixBlock)
		for i := range g.block {
			switch {
			case i < mixWrites:
				g.block[i] = "write"
			case i < mixWrites+mixRepeats:
				g.block[i] = "repeat"
			default:
				g.block[i] = "grid"
			}
		}
		g.rng.Shuffle(mixBlock, func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[0]
	g.block = g.block[1:]
	if kind == "repeat" && len(g.history) > repeatGap {
		it := g.history[g.rng.IntN(len(g.history)-repeatGap)]
		it.kind = kind
		return it
	}
	e := dashboardExperiments[g.rng.IntN(len(dashboardExperiments))]
	req := serve.Request{
		Experiment: e.id,
		Seed:       g.pool[g.rng.IntN(len(g.pool))],
		Scale:      "quick",
		F:          g.subset(e.f, 1+g.rng.IntN(2)),
		R:          g.subset(e.r, 1+g.rng.IntN(2)),
		L:          g.subset(e.l, 2+g.rng.IntN(3)),
	}
	if kind == "write" {
		// Every F and the cheapest R make every write the same job: six
		// cells to simulate, big enough that a few milliseconds of host
		// noise does not decide the tail.
		req.F, req.R = g.subset(e.f, len(e.f)), e.r[:1]
		at := g.rng.IntN(len(req.L) + 1)
		req.L = append(req.L[:at], append([]int{g.freshL()}, req.L[at:]...)...)
	} else {
		kind = "grid"
	}
	it := item{req: req, kind: kind, cells: len(req.F) * len(req.R) * len(req.L) * 2}
	g.history = append(g.history, it)
	return it
}

// subset returns k distinct values of vals in random order.
func (g *dashboardGen) subset(vals []int, k int) []int {
	out := make([]int, len(vals))
	copy(out, vals)
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:k]
}

// freshL returns the next latency, counting up from firstFreshL, that
// neither the default grids nor an earlier write used. Neighbouring
// latencies cost the simulator about the same, so every write does
// about the same work.
func (g *dashboardGen) freshL() int {
	for g.usedL[g.nextL] {
		g.nextL++
	}
	g.usedL[g.nextL] = true
	return g.nextL
}
