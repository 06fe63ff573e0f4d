package main

import (
	"fmt"
	"time"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

// replayRequests is how many distinct requests, from the start of the
// workload's sequence, the layer replay runs.
const replayRequests = 16

// minTimed is the least wall time a replayed microsecond-scale call is
// repeated for, so the per-call figure is not a single timer tick.
const minTimed = 100 * time.Millisecond

// replayed is the layer costs the replay measured.
type replayed struct {
	planUSPerKey      float64 // Experiment.PointKeys
	coveredUSPerKey   float64 // Store.Covered on a store holding every key
	getBatchUSPerKey  float64 // Store.GetBatch on the same store
	assembleUSPerCell float64 // warm RunGrid: every cell decoded from the store
	analyticUSPerCell float64 // RunGrid at FidelityAnalytic, no store
	simMSPerCell      float64 // cold RunGrid, one worker, no store
	mcyclesPerS       float64 // simulated cycles per second in the cold RunGrid
	nsPerFault        float64 // cold RunGrid wall time per simulated fault
}

// call is one replayable request: the experiment and its grid.
type call struct {
	e     experiment.Experiment
	seed  uint64
	g     experiment.Grids
	cells int
	keys  []string
}

// replay runs the workload's first distinct requests through the
// layers' public functions, one layer at a time.
func replay(w *workload, seed uint64) (replayed, error) {
	var out replayed
	calls, err := replayCalls(w, seed)
	if err != nil {
		return out, err
	}
	sim := scale(experiment.FidelitySim)
	var keys, cells int
	for i := range calls {
		calls[i].keys = calls[i].e.PointKeys(calls[i].seed, sim, calls[i].g)
		keys += len(calls[i].keys)
		cells += calls[i].cells
	}

	out.planUSPerKey = us(timed(func() {
		for _, c := range calls {
			c.e.PointKeys(c.seed, sim, c.g)
		}
	})) / float64(keys)

	// Cold, single worker, no store: the simulator's own cost.
	var cycles, faults int64
	t0 := time.Now()
	for _, c := range calls {
		rep := c.e.RunGrid(c.seed, sim, c.g)
		if rep.Err != nil {
			return out, rep.Err
		}
		for _, m := range rep.Points {
			faults += m.Res.Faults
			if m.Res.Full != nil {
				cycles += m.Res.Full.Total()
			}
		}
	}
	cold := time.Since(t0)
	out.simMSPerCell = ms(cold) / float64(cells)
	out.mcyclesPerS = float64(cycles) / cold.Seconds() / 1e6
	out.nsPerFault = ratio(float64(cold.Nanoseconds()), float64(faults))

	// Warm: a store that holds every cell.
	store, err := pointstore.New(64<<20, "")
	if err != nil {
		return out, err
	}
	defer store.Close()
	warm := sim
	warm.PointStore = store
	for _, c := range calls {
		if rep := c.e.RunGrid(c.seed, warm, c.g); rep.Err != nil {
			return out, rep.Err
		}
	}
	out.coveredUSPerKey = us(timed(func() {
		for _, c := range calls {
			store.Covered(c.keys)
		}
	})) / float64(keys)
	out.getBatchUSPerKey = us(timed(func() {
		for _, c := range calls {
			store.GetBatch(c.keys)
		}
	})) / float64(keys)
	out.assembleUSPerCell = us(timed(func() {
		for _, c := range calls {
			c.e.RunGrid(c.seed, warm, c.g)
		}
	})) / float64(cells)

	an := scale(experiment.FidelityAnalytic)
	out.analyticUSPerCell = us(timed(func() {
		for _, c := range calls {
			c.e.RunGrid(c.seed, an, c.g)
		}
	})) / float64(cells)
	return out, nil
}

// replayCalls regenerates the workload's request sequence and keeps its
// first distinct requests.
func replayCalls(w *workload, seed uint64) ([]call, error) {
	gen := w.gen(seed)
	seen := map[string]bool{}
	var out []call
	for n := 0; len(out) < replayRequests && n < 100*replayRequests; n++ {
		it := gen.next()
		if id := identity(it.req); !seen[id] {
			seen[id] = true
			c, err := toCall(it)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
	}
	return out, nil
}

func toCall(it item) (call, error) {
	e, ok := experiment.Get(it.req.Experiment)
	if !ok || e.RunGrid == nil || e.PointKeys == nil {
		return call{}, fmt.Errorf("experiment %q has no grid sweep", it.req.Experiment)
	}
	return call{e: e, seed: it.req.Seed, cells: it.cells,
		g: experiment.Grids{F: it.req.F, R: it.req.R, L: it.req.L}}, nil
}

// scale is the quick scale the daemon resolves every request to, at the
// given tier, with one engine worker.
func scale(f experiment.Fidelity) experiment.Scale {
	sc := experiment.Quick
	sc.Fidelity = f
	sc.Workers = 1
	return sc
}

// timed runs fn repeatedly for at least minTimed and returns the mean
// time per run.
func timed(fn func()) time.Duration {
	var n int
	t0 := time.Now()
	for time.Since(t0) < minTimed {
		fn()
		n++
	}
	return time.Since(t0) / time.Duration(n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
