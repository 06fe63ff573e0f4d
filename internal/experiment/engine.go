package experiment

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the experiment execution engine. Every experiment
// definition reduces its work to a list of independent points (one
// simulation cell each), and the engine runs them on a bounded worker
// pool. Two properties make parallel runs bit-identical to sequential
// ones:
//
//   - Each point carries its own RNG seed, derived (rng.DeriveSeed)
//     from the experiment seed and the point's coordinates — never from
//     execution order. Sweep cells are therefore also statistically
//     independent, instead of replaying one stream per cell.
//   - Results are written by point index and flattened in list order,
//     so Report.Points stays panel-major regardless of worker count.
//
// Those same properties make points memoizable: a point's measurements
// are a pure function of its content address (point.key), so when the
// scale carries a PointStore the engine partitions the sweep into
// cached / in-flight / to-compute, simulates only the last group, and
// assembles a report byte-identical to a cold run.
//
// The engine is also cancellable: Scale carries a context
// (Scale.WithContext), checked between points, so a long sweep whose
// consumer has gone away stops burning worker cycles mid-grid. A
// cancelled run returns the completed cells plus the context error.

// point is one schedulable measurement cell: a pre-derived seed plus
// the function producing the cell's measurements. run must not touch
// state shared with other points. key, when non-empty, is the cell's
// content address (pointKey) and makes it memoizable; points without a
// key always simulate. cell carries a grid sweep point's coordinates so
// it can be shipped to a remote computer (Scale.Remote); only
// registered grid sweeps name themselves to the engine (sweepMeta), so
// every other point list runs locally.
type point struct {
	seed uint64
	key  string
	cell Cell
	run  func(seed uint64) []Measurement
}

// runLocal invokes the point's simulation, paying the scale's compute
// rate limit first (if any). Every fresh local simulation goes through
// here; cache hits, joined flights, and remote results do not.
func (p point) runLocal(s Scale) []Measurement {
	if s.ComputeLimit != nil {
		s.ComputeLimit.Acquire(s.Context())
	}
	return p.run(p.seed)
}

// sweepMeta names the sweep a point list belongs to; a remote computer
// needs it to rebuild cells from coordinates. The zero value marks a
// point list no worker could rebuild by ID — heterogeneous experiments
// and unregistered sweeps (the ablations) — which therefore never
// leaves the process.
type sweepMeta struct {
	experiment string
	seed       uint64
}

// execute runs the points on Scale.Workers goroutines (0 = all cores)
// and returns their measurements flattened in point order. When the
// scale's context is cancelled mid-sweep the flattened completed cells
// are returned together with the context error; cells not yet started
// are skipped.
//
// With a point store on the scale, keyed points resolve through it:
// already-stored cells are decoded instead of simulated, cells being
// computed by a concurrent sweep are joined (single-flight), and only
// the remainder runs on the worker pool — with each computed cell
// encoded into the store for the next overlapping sweep. The cache is
// strictly an accelerator: any decode trouble falls back to local
// simulation, and the assembled measurements are byte-identical to a
// cold run because every cell is a pure function of its key.
func execute(scale Scale, pts []point) ([]Measurement, error) {
	return executeSweep(sweepMeta{}, scale, pts)
}

// executeSweep is execute with the sweep's identity attached (see
// resolve): the points' measurements flattened in point order.
func executeSweep(meta sweepMeta, scale Scale, pts []point) ([]Measurement, error) {
	res, err := resolve(meta, scale, pts)
	n := 0
	for _, r := range res {
		n += len(r.ms)
	}
	var out []Measurement // nil when no cell resolved
	if n > 0 {
		out = make([]Measurement, 0, n)
	}
	for _, r := range res {
		out = append(out, r.ms...)
	}
	return out, err
}

// resolution is one point's outcome: its measurements and, when it
// resolved through the point store or the remote tier, the encoded
// bytes it resolved to. data is nil for a storeless local simulation.
type resolution struct {
	ms   []Measurement
	data []byte
}

// resolve is the engine's one cell resolver: store pre-pass, optional
// remote phase, then the local worker pool with store single-flight
// and decode fallback. Between the cache pre-pass and the local pool,
// when the scale carries a Remote computer and the meta names a
// registered sweep, the still-missing keyed cells are offered to the
// remote tier, results are matched back by content address
// (duplicates and unknown keys dropped), verified by decoding, and
// stored locally. Whatever the remote tier does not deliver — a failed
// batch, an ejected worker, a version-skewed key — falls through to
// the local pool, so remote execution can only speed a sweep up.
// Points a cancelled run never reached have a zero resolution.
func resolve(meta sweepMeta, scale Scale, pts []point) ([]resolution, error) {
	results := make([]resolution, len(pts))
	store := scale.PointStore
	progress := scale.progressHook()
	fid := scale.fidelity()
	// onPoint forwards each filled cell to the scale's observer; the
	// hook documents that calls may be concurrent, so no serialization
	// here (unlike progress).
	onPoint := func(ms []Measurement) {
		if scale.OnPoint != nil {
			scale.OnPoint(ms)
		}
	}

	// Cached pre-pass: resolve every already-stored point up front, so
	// the worker pool (and the progress denominator's remaining share)
	// covers only cells that need simulating. The store probe is one
	// batched GetBatch — one lock acquisition per store shard instead
	// of two per point — and the decode of resolved cells runs on the
	// worker pool: an 80%-warm sweep's dominant cost is decoding, not
	// simulating, so it must not serialize on one goroutine. GetBatch
	// counts no misses for absent keys; the miss accounting belongs to
	// the Do below, which is what actually pays for the simulation.
	// todo holds the indices left to run.
	var todo []int
	if store != nil {
		keys := make([]string, len(pts))
		for i := range pts {
			keys[i] = pts[i].key
		}
		datas := store.GetBatch(keys)
		var cand []int // indices with stored bytes to decode
		for i, data := range datas {
			if data != nil {
				cand = append(cand, i)
			}
		}
		decodeOne := func(ci int) {
			i := cand[ci]
			if ms, err := decodeMeasurements(fid, datas[i]); err == nil {
				results[i] = resolution{ms, datas[i]}
				onPoint(ms)
			}
			// Undecodable entry (e.g. written by a codec this build no
			// longer speaks): left nil, recomputed below. Correctness
			// never depends on the cache.
		}
		if workers := scale.workers(); workers > 1 && len(cand) > 1 {
			// The pre-pass always completes (as it did when serial), so
			// it runs under a background context; cancellation is
			// honoured between the simulated points below.
			forEach(context.Background(), workers, 0, len(cand), nil, len(cand), decodeOne)
		} else {
			for ci := range cand {
				decodeOne(ci)
			}
		}
		for i := range pts {
			if results[i].ms == nil {
				todo = append(todo, i)
			}
		}
	} else {
		todo = make([]int, len(pts))
		for i := range todo {
			todo[i] = i
		}
	}

	cached := len(pts) - len(todo)
	if progress != nil && cached > 0 {
		// Cache-resolved cells count as done immediately, so a consumer
		// watching progress sees an 80%-cached sweep start at 80%.
		progress(cached, len(pts))
	}

	// Remote phase: offer the missing keyed cells to the remote
	// computer. Results stream back through emit, which fills every
	// index sharing the key (grids can repeat values), counts
	// progress, and feeds the local store so the next overlapping
	// sweep — and this coordinator's planner — sees them as cached.
	if scale.Remote != nil && meta.experiment != "" && len(todo) > 0 {
		byKey := make(map[string][]int)
		rpts := make([]RemotePoint, 0, len(todo))
		for _, i := range todo {
			p := pts[i]
			if _, dup := byKey[p.key]; !dup {
				rpts = append(rpts, RemotePoint{
					Key: p.key, F: p.cell.F, R: p.cell.R, L: p.cell.L, Arch: p.cell.Arch,
				})
			}
			byKey[p.key] = append(byKey[p.key], i)
		}
		if len(rpts) > 0 {
			var mu sync.Mutex
			done := cached
			emit := func(key string, data []byte) {
				idxs, ok := byKey[key]
				if !ok {
					return // unknown or version-skewed key: ignore
				}
				ms, decErr := decodeMeasurements(fid, data)
				if decErr != nil {
					return // undecodable bytes: cell falls back to local
				}
				filled := 0
				mu.Lock()
				for _, i := range idxs {
					if results[i].ms == nil {
						results[i] = resolution{ms, data}
						done++
						filled++
					}
				}
				doneNow := done
				mu.Unlock()
				if filled == 0 {
					return
				}
				// One observer call per filled grid cell, matching the
				// cached and local paths (grids can repeat values).
				for n := filled; n > 0; n-- {
					onPoint(ms)
				}
				if store != nil {
					store.Put(key, data)
				}
				// The results mutex is released before the progress hook
				// runs: a slow (or blocking) consumer must never stall
				// concurrent emits, which need the mutex to record their
				// cells. Each done value is still reported exactly once;
				// values may interleave across emits, which the hook
				// contract already allows.
				if progress != nil {
					for v := doneNow - filled + 1; v <= doneNow; v++ {
						progress(v, len(pts))
					}
				}
			}
			// A remote-tier error is not a sweep error: every cell it
			// failed to deliver is simulated below. The computer's own
			// metrics/logs carry the diagnosis.
			_ = scale.Remote.ComputePoints(scale.Context(), RemoteSweep{
				Experiment: meta.experiment,
				Seed:       meta.seed,
				Fidelity:   fid,
				Threads:    scale.Threads,
				WorkRuns:   scale.WorkRuns,
				MinWork:    scale.MinWork,
				Points:     rpts,
			}, emit)
			remaining := todo[:0]
			for _, i := range todo {
				if results[i].ms == nil {
					remaining = append(remaining, i)
				}
			}
			todo = remaining
		}
	}

	err := forEach(scale.Context(), scale.workers(), len(pts)-len(todo), len(pts), progress, len(todo), func(ti int) {
		i := todo[ti]
		p := pts[i]
		if store == nil || p.key == "" {
			results[i].ms = p.runLocal(scale)
			onPoint(results[i].ms)
			return
		}
		// Single-flight through the store: if a concurrent sweep is
		// already simulating this cell we wait and share its bytes;
		// otherwise we simulate, keep the measurements, and store their
		// encoding. ms doubles as the "computed locally" marker so the
		// leader never pays a decode round-trip for its own result.
		var ms []Measurement
		data, doErr := store.Do(p.key, func() ([]byte, error) {
			ms = p.runLocal(scale)
			return encodeMeasurements(fid, ms), nil
		})
		if ms == nil {
			if doErr == nil {
				ms, doErr = decodeMeasurements(fid, data)
			}
			if doErr != nil {
				// Joined a flight that failed, or shared bytes we cannot
				// decode: simulate locally rather than failing the sweep.
				ms, data = p.runLocal(scale), nil
			}
		}
		results[i] = resolution{ms, data}
		onPoint(ms)
	})

	return results, err
}

// forEach runs fn(0), ..., fn(n-1) on the scale's worker pool,
// reporting completion counts to the scale's progress hook and
// honouring its context. Iterations must be independent: fn is called
// concurrently with distinct arguments and must not touch shared
// state. Heterogeneous experiments (those whose cells produce notes or
// need error handling) use it directly with an indexed results slice;
// grid sweeps go through execute.
func (s Scale) forEach(n int, fn func(i int)) error {
	return forEach(s.Context(), s.workers(), 0, n, s.progressHook(), n, fn)
}

// forEach is the engine core. workers <= 0 means one per core. The
// context is polled between iterations: already-running iterations
// complete, unstarted ones are abandoned, and the context error is
// returned. progress may be nil; it receives done counts offset by
// done0 against total, so a sweep that resolved part of its cells from
// cache reports progress over the whole sweep, not just the simulated
// remainder.
func forEach(ctx context.Context, workers, done0, total int, progress func(done, total int), n int, fn func(i int)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	report := func(done int) {
		if progress != nil {
			progress(done0+done, total)
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
			report(i + 1)
		}
		// Every iteration ran: the sweep is complete and valid even if
		// the context was cancelled during the final point.
		return nil
	}
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
				report(int(done.Add(1)))
			}
		}()
	}
	wg.Wait()
	if int(done.Load()) == n {
		// All points completed despite any late cancellation — report
		// success so the full result stays usable (and cacheable).
		return nil
	}
	return ctx.Err()
}

// progressHook wraps Scale.Progress so calls are serialized by a
// mutex and hooks need no locking of their own; with concurrent
// workers the done values may arrive slightly out of order, but each
// value appears exactly once and the final call carries done == total.
func (s Scale) progressHook() func(done, total int) {
	perCall := s.Progress
	if perCall == nil {
		return nil
	}
	var mu sync.Mutex
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		perCall(done, total)
	}
}
