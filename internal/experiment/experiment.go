// Package experiment defines and runs the paper's evaluation: one
// registered experiment per table and figure, each producing a Report
// whose rows mirror the series the paper plots. The harness renders
// reports as text tables, ASCII plots (efficiency vs latency, one curve
// per run length, solid/fixed vs dotted/flexible — like Figures 5 and
// 6), and CSV.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"regreloc/internal/node"
	"regreloc/internal/pointstore"
	"regreloc/internal/rng"
	"regreloc/internal/workload"
)

// Scale controls the cost and execution of a run: population size,
// per-thread work (as a multiple of the run length R), and how many
// sweep points run concurrently.
type Scale struct {
	// Threads is the synthetic thread population per simulation.
	Threads int
	// WorkRuns is per-thread work expressed in average run lengths, so
	// longer-R workloads get proportionally more work per thread.
	WorkRuns int64
	// MinWork floors the per-thread work in cycles.
	MinWork int64
	// Workers bounds the worker pool running sweep points: 0 means one
	// worker per core (runtime.GOMAXPROCS), 1 forces sequential
	// execution, N caps the pool at N goroutines. The produced Report
	// is identical for every setting; per-point seed derivation makes
	// results independent of execution order.
	Workers int
	// Progress, if non-nil, receives (points completed, total points)
	// updates as the run's cells finish. Calls are serialized, so the
	// hook needs no locking of its own; it runs inline on worker
	// goroutines and should return quickly. Progress is scoped to the
	// runs using this Scale, so concurrent experiments do not
	// interleave. Cells resolved from the point store count as
	// completed immediately, so a mostly-cached sweep starts near 100%.
	Progress func(done, total int)
	// PointStore, if non-nil, memoizes individual sweep points: cells
	// already stored are decoded instead of simulated, cells being
	// computed by a concurrent run are joined, and newly simulated
	// cells are stored for the next overlapping sweep. Reports stay
	// byte-identical to a store-less run; see execute. Fields that
	// shape results (Threads, WorkRuns, MinWork) are part of each
	// point's key, execution-only fields (Workers, Progress, context)
	// are not.
	PointStore *pointstore.Store
	// Remote, if non-nil, is offered the cells a sweep still needs
	// after the point-store pre-pass (see executeSweep). Cells the
	// remote tier delivers are matched by content address and verified
	// by decoding; anything missing or undecodable is simulated
	// locally, so Remote accelerates sweeps without ever owning their
	// correctness. Execution-only: not part of point keys.
	Remote PointComputer
	// ComputeLimit, if non-nil, gates every local point simulation
	// behind Acquire, bounding this process's simulation rate (e.g. to
	// protect a shared box, or to model fixed per-node capacity).
	// Cache hits and remote results bypass it. Execution-only: not
	// part of point keys.
	ComputeLimit Limiter
	// Fidelity selects the measurement backend producing each point:
	// the node discrete-event simulator (FidelitySim, the default and
	// the zero value), the instruction-level managed machine
	// (FidelityMachine), or the closed-form analytic model
	// (FidelityAnalytic). The tier shapes results, so it is part of
	// every point's content address and codec header — tiers never
	// share cache entries. See backend.go.
	Fidelity Fidelity
	// OnPoint, if non-nil, receives each resolved point's measurements
	// as the sweep fills them in — cache hits, remote results, and
	// local computations alike, one call per filled grid cell. Calls
	// may arrive concurrently from worker goroutines and in any order;
	// the hook must do its own locking and return quickly.
	// Execution-only: not part of point keys.
	OnPoint func(ms []Measurement)

	// ctx carries cancellation into the engine; set via WithContext.
	// nil means context.Background().
	ctx context.Context
}

// WithContext returns a copy of the scale whose runs are cancelled
// when ctx is. Cancellation is checked between sweep points: running
// cells complete, unstarted ones are abandoned, and the resulting
// Report carries the completed cells plus a non-nil Err.
func (s Scale) WithContext(ctx context.Context) Scale {
	s.ctx = ctx
	return s
}

// Context returns the scale's cancellation context, defaulting to
// context.Background().
func (s Scale) Context() context.Context {
	if s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// Scales used by tests, benchmarks, and the CLI.
var (
	// Quick is for unit tests and -bench smoke runs.
	Quick = Scale{Threads: 32, WorkRuns: 100, MinWork: 2000}
	// Full is the default reproduction scale.
	Full = Scale{Threads: 64, WorkRuns: 400, MinWork: 8000}
)

func (s Scale) workPer(r int) int64 {
	w := int64(r) * s.WorkRuns
	if w < s.MinWork {
		w = s.MinWork
	}
	return w
}

// workers resolves Scale.Workers to a concrete pool size.
func (s Scale) workers() int {
	if s.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Workers
}

// Measurement is one simulated data point: a (figure, panel, curve,
// x-value) cell.
type Measurement struct {
	Panel string // e.g. "F=64"
	Arch  string // "fixed", "flexible", "flexible-lookup", ...
	R     int    // run length (curve)
	L     int    // latency (x axis)
	F     int    // register file size
	Eff   float64
	Res   node.Result
}

// Report is the output of one experiment.
type Report struct {
	ID          string
	Title       string
	Description string
	// Notes carry per-experiment commentary (e.g. the paper's claimed
	// qualitative result for comparison).
	Notes []string
	// Points are all measurements, ordered panel-major.
	Points []Measurement
	// Err is non-nil when the run was interrupted (typically by
	// context cancellation): Points then holds only the cells that
	// completed, and the report must not be treated — or cached — as a
	// full reproduction.
	Err error
}

// Panels returns the distinct panel names in first-seen order.
func (r *Report) Panels() []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range r.Points {
		if !seen[p.Panel] {
			seen[p.Panel] = true
			out = append(out, p.Panel)
		}
	}
	return out
}

// PanelPoints returns the measurements of one panel.
func (r *Report) PanelPoints(panel string) []Measurement {
	var out []Measurement
	for _, p := range r.Points {
		if p.Panel == panel {
			out = append(out, p)
		}
	}
	return out
}

// Find returns the measurement for (panel, arch, R, L), or ok=false.
func (r *Report) Find(panel, arch string, rl, lat int) (Measurement, bool) {
	for _, p := range r.Points {
		if p.Panel == panel && p.Arch == arch && p.R == rl && p.L == lat {
			return p, true
		}
	}
	return Measurement{}, false
}

// Grids optionally overrides a sweep experiment's parameter grids —
// register file sizes F, run lengths R, and latencies L. A nil slice
// keeps the experiment's published default for that axis. Grid order
// is significant: it determines the panel-major order of the report's
// points, so two requests with the same values in different orders are
// distinct (and hash differently in content-addressed caches).
type Grids struct {
	F, R, L []int
}

// Empty reports whether no axis is overridden.
func (g Grids) Empty() bool { return len(g.F) == 0 && len(g.R) == 0 && len(g.L) == 0 }

// or fills unset axes from the given defaults.
func (g Grids) or(f, r, l []int) Grids {
	if len(g.F) == 0 {
		g.F = f
	}
	if len(g.R) == 0 {
		g.R = r
	}
	if len(g.L) == 0 {
		g.L = l
	}
	return g
}

// Experiment is a registered, runnable reproduction of one table or
// figure.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(seed uint64, scale Scale) *Report
	// RunGrid, when non-nil, runs the experiment over caller-chosen
	// parameter grids (empty axes keep the defaults). Grid-based sweep
	// experiments set it so services can compute exactly the cells a
	// client asks for; Run is then the zero-override special case.
	RunGrid func(seed uint64, scale Scale, g Grids) *Report
	// PointKeys, when non-nil, returns the content address of every
	// point the corresponding RunGrid call would simulate, in cell
	// order, without running anything (see gridSweep.keys). Planners use it
	// to partition a request into cached and to-compute points before
	// committing resources.
	PointKeys func(seed uint64, scale Scale, g Grids) []string
	// Cells, when non-nil, returns how many points PointKeys would
	// return for g, without deriving any key.
	Cells func(g Grids) int
	// ComputeCells, when non-nil, computes an explicit list of cells
	// (any subset of any grid) and returns their encoded measurements
	// keyed by content address (see gridSweep.compute). Cluster workers use
	// it to serve shard-scoped compute requests; cells resolve through
	// the scale's point store exactly like a full sweep, so worker
	// caches stay effective across overlapping jobs.
	ComputeCells func(seed uint64, scale Scale, cells []Cell) ([]CellResult, error)
}

var registry = map[string]Experiment{}
var registryOrder []string

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiment: duplicate id " + e.ID)
	}
	if e.Run == nil && e.RunGrid != nil {
		rg := e.RunGrid
		e.Run = func(seed uint64, scale Scale) *Report { return rg(seed, scale, Grids{}) }
	}
	registry[e.ID] = e
	registryOrder = append(registryOrder, e.ID)
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range registryOrder {
		out = append(out, registry[id])
	}
	return out
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	return append([]string(nil), registryOrder...)
}

// archSpec names one architecture of a sweep and builds its node
// configuration for a register file size.
type archSpec struct {
	name string
	cfg  func(fileSize int) node.Config
}

// specFn builds the workload for one (R, L) cell. It receives the
// scale so population size can enter the spec; it must be a pure
// function of its arguments, because the same builder serves both
// whole-grid sweeps (RunGrid) and shard-scoped cell lists
// (ComputeCells) — possibly in different processes, whose results
// must be byte-identical.
type specFn func(scale Scale, rl, l int, work int64) workload.Spec

// panelName is the single source of truth for a cell's panel label, so
// grid sweeps and remote cell computation agree byte-for-byte.
func panelName(f int) string { return fmt.Sprintf("F=%d", f) }

// gridSweep is the one definition of a fixed-vs-flexible comparison
// over an (F, R, L) grid: its identity, report notes, default grids,
// workload builder and architectures. Everything a registered sweep
// exposes — RunGrid, PointKeys, ComputeCells — derives from this value
// (registerSweep), so the three can never disagree on a cell's key,
// seed or bytes. The archs order is part of the definition: a cell's
// arch index enters its RNG seed.
type gridSweep struct {
	id, title, description string
	notes                  []string
	f, r, l                []int // default grids
	spec                   specFn
	archs                  []archSpec
	// registered marks a sweep a worker can rebuild by ID: only those
	// are offered to Scale.Remote (see measure).
	registered bool
}

// registerSweep registers s as a grid experiment.
func registerSweep(s *gridSweep) {
	s.registered = true
	s.noteLabels()
	register(Experiment{
		ID:           s.id,
		Title:        s.title,
		Description:  s.description,
		RunGrid:      s.run,
		PointKeys:    s.keys,
		Cells:        s.count,
		ComputeCells: s.compute,
	})
}

// registerAblation registers a one-off sweep over its default grids.
// The sweep stays unregistered as a grid sweep (no RunGrid, PointKeys
// or ComputeCells), so it always runs locally; post, if non-nil,
// appends summary notes to the finished report.
func registerAblation(s *gridSweep, post func(*Report)) {
	s.noteLabels()
	register(Experiment{
		ID:          s.id,
		Title:       s.title,
		Description: s.description,
		Run: func(seed uint64, scale Scale) *Report {
			r := s.run(seed, scale, Grids{})
			if post != nil {
				post(r)
			}
			return r
		},
	})
}

// cells enumerates grid g, empty axes taking the sweep's defaults, in
// panel-major F→R→L→arch order — the one cell order reports, point
// keys and remote batches share.
func (s *gridSweep) cells(g Grids) []Cell {
	g = g.or(s.f, s.r, s.l)
	cells := make([]Cell, 0, len(g.F)*len(g.R)*len(g.L)*len(s.archs))
	for _, f := range g.F {
		for _, r := range g.R {
			for _, l := range g.L {
				for _, a := range s.archs {
					cells = append(cells, Cell{F: f, R: r, L: l, Arch: a.name})
				}
			}
		}
	}
	return cells
}

// count is len(s.cells(g)), without enumerating the cells.
func (s *gridSweep) count(g Grids) int {
	g = g.or(s.f, s.r, s.l)
	return len(g.F) * len(g.R) * len(g.L) * len(s.archs)
}

// points builds the schedulable point for each cell. All per-point
// derivation lives here — the RNG seed (from the cell coordinates and
// the arch's index in s.archs, never from execution order), the
// content address, and the run closure, which builds the cell's
// workload spec only if the cell is simulated (on a warm sweep most
// cells resolve from the store and never need one) — so a cell
// computes the same bytes whichever path or process runs it. An arch
// the sweep does not define is an error: its seed index would be
// meaningless.
func (s *gridSweep) points(seed uint64, scale Scale, cells []Cell) ([]point, error) {
	be := backendFor(scale.fidelity())
	pts := make([]point, len(cells))
	for i, c := range cells {
		ai := slices.IndexFunc(s.archs, func(a archSpec) bool { return a.name == c.Arch })
		if ai < 0 {
			return nil, fmt.Errorf("experiment %s: unknown arch %q", s.id, c.Arch)
		}
		a := s.archs[ai]
		pts[i] = point{
			seed: rng.DeriveSeed(seed, uint64(c.F), uint64(c.R), uint64(c.L), uint64(ai)),
			key:  pointKey(s.id, seed, scale, c.F, c.R, c.L, c.Arch),
			cell: c,
			run: func(pointSeed uint64) []Measurement {
				spec := s.spec(scale, c.R, c.L, scale.workPer(c.R))
				return be.Measure(a, c.F, c.R, c.L, spec, pointSeed)
			},
		}
	}
	return pts, nil
}

// measure runs grid g through the engine. Only a registered sweep
// names itself to the engine, so only its cells may be offered to a
// remote computer; unregistered sweeps (the ablations) always run
// locally, since no worker could rebuild them by ID.
func (s *gridSweep) measure(seed uint64, scale Scale, g Grids) ([]Measurement, error) {
	pts, err := s.points(seed, scale, s.cells(g))
	if err != nil {
		return nil, err
	}
	var meta sweepMeta
	if s.registered {
		meta = sweepMeta{experiment: s.id, seed: seed}
	}
	return executeSweep(meta, scale, pts)
}

// run measures grid g into a report, keeping the partial points and
// the interruption error together.
func (s *gridSweep) run(seed uint64, scale Scale, g Grids) *Report {
	r := &Report{ID: s.id, Title: s.title, Notes: append([]string(nil), s.notes...)}
	r.Points, r.Err = s.measure(seed, scale, g)
	return r
}

// compute is ComputeCells: it resolves an explicit cell list (any
// subset of any grid, in any order) through the engine, locally, and
// returns each cell's key and encoded measurements. Each result
// carries the key this process derived, so a requester on a different
// engine version sees its own keys go unanswered instead of receiving
// bytes computed under different semantics.
func (s *gridSweep) compute(seed uint64, scale Scale, cells []Cell) ([]CellResult, error) {
	pts, err := s.points(seed, scale, cells)
	if err != nil {
		return nil, err
	}
	res, err := resolve(sweepMeta{}, scale, pts)
	if err != nil {
		// Interrupted (context cancelled): a partial cell list is
		// useless to the requester — it will retry elsewhere.
		return nil, err
	}
	out := make([]CellResult, len(pts))
	for i, r := range res {
		if r.data == nil {
			r.data = encodeMeasurements(scale.fidelity(), r.ms)
		}
		out[i] = CellResult{Key: pts[i].key, Data: r.data}
	}
	return out, nil
}

// Curves groups a panel's measurements into (arch, R) curves sorted by
// L, for plotting.
type Curve struct {
	Arch string
	R    int
	L    []int
	Eff  []float64
}

// PanelCurves extracts the curves of one panel, fixed archs first, then
// by ascending R.
func (r *Report) PanelCurves(panel string) []Curve {
	type key struct {
		arch string
		r    int
	}
	byKey := map[key]*Curve{}
	var order []key
	for _, p := range r.PanelPoints(panel) {
		k := key{p.Arch, p.R}
		c, ok := byKey[k]
		if !ok {
			c = &Curve{Arch: p.Arch, R: p.R}
			byKey[k] = c
			order = append(order, k)
		}
		c.L = append(c.L, p.L)
		c.Eff = append(c.Eff, p.Eff)
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].arch != order[j].arch {
			return order[i].arch < order[j].arch
		}
		return order[i].r < order[j].r
	})
	out := make([]Curve, 0, len(order))
	for _, k := range order {
		c := byKey[k]
		// Sort points by L.
		idx := make([]int, len(c.L))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return c.L[idx[a]] < c.L[idx[b]] })
		sorted := Curve{Arch: c.Arch, R: c.R}
		for _, i := range idx {
			sorted.L = append(sorted.L, c.L[i])
			sorted.Eff = append(sorted.Eff, c.Eff[i])
		}
		out = append(out, sorted)
	}
	return out
}
