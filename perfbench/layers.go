package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"regreloc/internal/pointstore"
)

// runTraced measures the per-layer metrics. It drives the workload
// twice on fresh daemons with the same seed — untraced, then traced —
// so the difference between the two is the tracing overhead; it reads
// the daemon's /metrics and point-store counters around the traced
// phase, replays the requests through the layers' public functions,
// verifies every delivered report, and checks that the traffic still
// exercises the layers the workload was chosen for.
func runTraced(w *workload, opt options, out io.Writer) (*result, error) {
	d := seconds(opt.seconds)
	e, _, err := setUp(w, opt.seed, 1)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain, _ := drive(w, e.c, opt.seed, d)
	if err := e.close(); err != nil {
		return nil, err
	}
	ph, err := observe(w, opt.seed, d)
	if err != nil {
		return nil, err
	}
	rp, err := replay(w, opt.seed)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	res, verr := finish(w, opt, out, append(append([]*record(nil), plain...), ph.recs...))
	if res == nil {
		return nil, verr
	}

	path := filepath.Join(opt.outDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, opt.seed))
	if err := writeSpans(ph.spans, path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "%d spans written to %s\n", len(ph.spans), path)
	var ttrTotal, unattributed time.Duration
	fmt.Fprintf(out, "%-16s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, lt := range selfTimes(ph.spans) {
		fmt.Fprintf(out, "%-16s %7d %12.1f %12.1f\n", lt.name, lt.n, ms(lt.total), ms(lt.self))
		if lt.name == "request" {
			ttrTotal, unattributed = lt.total, lt.self
		}
	}

	m := map[string]metric{}
	sv := serveMetrics(m, ph)
	st := storeMetrics(m, ph, rp)
	if err := nodeMetrics(m, ph.recs, rp); err != nil {
		return nil, err
	}
	var late []float64
	for _, r := range plain {
		late = append(late, ms(r.start.Sub(r.due)))
	}
	m["bench.gen_late_p99_ms"] = metric{quantile(late, 0.99), "ms"}
	m["bench.trace_overhead_frac"] = metric{ratio(quantile(msValues(ph.recs, (*record).ttr), 0.5),
		quantile(msValues(plain, (*record).ttr), 0.5)) - 1, "frac"}
	m["bench.unattributed_frac"] = metric{ratio(float64(unattributed), float64(ttrTotal)), "frac"}
	res.Metrics = m
	if verr != nil {
		return res, verr
	}

	// A job's run is its sweep's simulation plus everything else the
	// sweep does; the warm replay runs exactly that everything else,
	// with every cell decoded instead of simulated.
	simShare := 1 - ratio(rp.assembleUSPerCell/1000*st.cellsPerRequest, sv.jobRunMS)
	return res, fitness(w, out, st.hitFrac, st.simulatedFrac, simShare, sv.eventsPerJob)
}

// observed is what the traced phase recorded: the requests and their
// spans, the daemon's /metrics before and after, the point-store
// counters over the phase, the deepest queue seen and the store's
// final memory.
type observed struct {
	recs          []*record
	spans         []span
	before, after map[string]float64
	points        pointstore.Counters
	maxDepth      int
	memBytes      int64
}

// observe boots a daemon and drives the traced phase.
func observe(w *workload, seed uint64, d time.Duration) (*observed, error) {
	e, _, err := setUp(w, seed, 1)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ph := &observed{}
	if ph.before, err = scrape(e.c); err != nil {
		e.close()
		return nil, err
	}
	pc0 := e.srv.PointCounters()
	tr := newTracer()
	e.c.tr = tr
	depth := sampleQueueDepth(e)
	ph.recs, _ = drive(w, e.c, seed, d)
	ph.maxDepth = depth()
	e.c.tr = nil
	ph.spans = tr.spans
	var serr error
	ph.after, serr = scrape(e.c)
	pc1 := e.srv.PointCounters()
	ph.points = pointstore.Counters{
		Hits:      pc1.Hits - pc0.Hits,
		Misses:    pc1.Misses - pc0.Misses,
		Joins:     pc1.Joins - pc0.Joins,
		Evictions: pc1.Evictions - pc0.Evictions,
	}
	if ps := e.srv.Points(); ps != nil {
		ph.memBytes = ps.Bytes()
	}
	if err := errors.Join(serr, e.close()); err != nil {
		return nil, err
	}
	return ph, nil
}

func (ph *observed) delta(name string) float64 { return ph.after[name] - ph.before[name] }

// serveFacts are the serve-layer figures the fitness checks reuse.
type serveFacts struct {
	jobRunMS, eventsPerJob float64
}

// serveMetrics adds the serve layer: the HTTP calls as the client saw
// them, and the daemon's own histograms and counters over the phase.
func serveMetrics(m map[string]metric, ph *observed) serveFacts {
	submits := float64(len(ph.recs))
	var submit, fetch, wait []float64
	var inline, waited, events, fetchBytes, ok float64
	for _, r := range ph.recs {
		if !r.ok {
			continue
		}
		ok++
		submit = append(submit, ms(r.submit))
		fetch = append(fetch, ms(r.fetch))
		fetchBytes += float64(r.fetchBytes)
		if r.inline {
			inline++
		}
		if r.waited {
			waited++
			events += float64(r.events)
			wait = append(wait, ms(r.wait))
		}
	}
	f := serveFacts{
		jobRunMS: 1000 * ratio(ph.delta("rrserve_job_duration_seconds_sum"),
			ph.delta("rrserve_job_duration_seconds_count")),
		eventsPerJob: ratio(events, waited),
	}
	hits, misses := ph.delta("rrserve_cache_hits_total"), ph.delta("rrserve_cache_misses_total")
	m["serve.submit_p50_ms"] = metric{quantile(submit, 0.5), "ms"}
	m["serve.fetch_p50_ms"] = metric{quantile(fetch, 0.5), "ms"}
	m["serve.result_kb"] = metric{ratio(fetchBytes, ok) / 1024, "KB"}
	m["serve.wait_p50_ms"] = metric{quantile(wait, 0.5), "ms"}
	m["serve.queue_wait_mean_ms"] = metric{1000 * ratio(ph.delta("rrserve_queue_wait_seconds_sum"),
		ph.delta("rrserve_queue_wait_seconds_count")), "ms"}
	m["serve.job_run_mean_ms"] = metric{f.jobRunMS, "ms"}
	m["serve.report_hit_frac"] = metric{ratio(hits, hits+misses), "frac"}
	m["serve.inline_frac"] = metric{ratio(inline, submits), "frac"}
	m["serve.coalesced_frac"] = metric{ratio(ph.delta("rrserve_jobs_coalesced_total"), submits), "frac"}
	m["serve.rejected_frac"] = metric{ratio(ph.delta("rrserve_jobs_rejected_total"), submits), "frac"}
	m["serve.queue_depth_max"] = metric{float64(ph.maxDepth), "count"}
	m["serve.events_per_job"] = metric{f.eventsPerJob, "count"}
	return f
}

// storeFacts are the experiment- and pointstore-layer figures the
// fitness checks reuse.
type storeFacts struct {
	hitFrac, simulatedFrac, cellsPerRequest float64
}

// storeMetrics adds the experiment and pointstore layers: the replay,
// plus the store's counters over the phase.
func storeMetrics(m map[string]metric, ph *observed, rp replayed) storeFacts {
	var requested float64
	for _, r := range ph.recs {
		tiers := 1.0
		if r.it.req.Fidelity == "adaptive" {
			tiers = 2 // the analytic partial and the sim refinement
		}
		requested += tiers * float64(r.it.cells)
	}
	pc := ph.points
	f := storeFacts{
		hitFrac:         ratio(float64(pc.Hits), float64(pc.Hits+pc.Misses)),
		simulatedFrac:   ratio(float64(pc.Misses), requested),
		cellsPerRequest: ratio(requested, float64(len(ph.recs))),
	}
	m["experiment.plan_us_per_key"] = metric{rp.planUSPerKey, "us"}
	m["experiment.assemble_us_per_cell"] = metric{rp.assembleUSPerCell, "us"}
	m["experiment.analytic_us_per_cell"] = metric{rp.analyticUSPerCell, "us"}
	m["experiment.sim_ms_per_cell"] = metric{rp.simMSPerCell, "ms"}
	m["experiment.simulated_frac"] = metric{f.simulatedFrac, "frac"}
	m["pointstore.covered_us_per_key"] = metric{rp.coveredUSPerKey, "us"}
	m["pointstore.getbatch_us_per_key"] = metric{rp.getBatchUSPerKey, "us"}
	m["pointstore.hit_frac"] = metric{f.hitFrac, "frac"}
	m["pointstore.joins"] = metric{float64(pc.Joins), "count"}
	m["pointstore.evictions"] = metric{float64(pc.Evictions), "count"}
	m["pointstore.mem_mb"] = metric{float64(ph.memBytes) / 1e6, "MB"}
	return f
}

// nodeMetrics adds the node layer: throughput from the cold replay, and
// operation counts from the delivered reports of a fixed,
// seed-determined request prefix.
func nodeMetrics(m map[string]metric, recs []*record, rp replayed) error {
	c, err := nodeCounts(recs)
	if err != nil {
		return err
	}
	m["node.mcycles_per_s"] = metric{rp.mcyclesPerS, "Mcycles/s"}
	m["node.ns_per_fault"] = metric{rp.nsPerFault, "ns"}
	m["node.faults_per_cell"] = metric{ratio(c.faults, c.cells), "count"}
	m["node.probes_per_cell"] = metric{ratio(c.probes, c.cells), "count"}
	m["node.allocs_per_cell"] = metric{ratio(c.allocs, c.cells), "count"}
	m["node.alloc_fail_frac"] = metric{ratio(c.allocFails, c.allocs+c.allocFails), "frac"}
	m["node.unloads_per_cell"] = metric{ratio(c.unloads, c.cells), "count"}
	m["node.flex_over_fixed_eff"] = metric{ratio(c.flexEff, c.fixedEff), "ratio"}
	return nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrape reads the daemon's /metrics and sums every series by metric
// name (labels folded together).
func scrape(c *client) (map[string]float64, error) {
	status, raw, err := c.call(http.MethodGet, "/metrics", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			if strings.Contains(name[j:], "le=") {
				continue // histogram buckets: only _sum and _count are used
			}
			name = name[:j]
		}
		out[name] += v
	}
	return out, nil
}

// fitness fails the traced run when the traffic no longer exercises
// what its workload was chosen for.
func fitness(w *workload, out io.Writer, hitFrac, simulatedFrac, simShare, eventsPerJob float64) error {
	var errs []error
	switch w.name {
	case "cold-sweep":
		if hitFrac != 0 {
			errs = append(errs, fmt.Errorf("cold-sweep: pointstore.hit_frac = %g, want 0", hitFrac))
		}
		fmt.Fprintf(out, "fitness: simulation is %.1f%% of the mean job run time\n", 100*simShare)
		if simShare < 0.9 {
			errs = append(errs, fmt.Errorf("cold-sweep: simulation is %.1f%% of the job run time, want >= 90%%", 100*simShare))
		}
	case "warm-dashboard":
		if simulatedFrac > writeShare {
			errs = append(errs, fmt.Errorf("warm-dashboard: experiment.simulated_frac = %g, above the write share %g", simulatedFrac, writeShare))
		}
	case "adaptive-first-answer":
		if eventsPerJob < 3 {
			errs = append(errs, fmt.Errorf("adaptive-first-answer: serve.events_per_job = %g, want >= 3", eventsPerJob))
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("workload fitness: %w", err)
	}
	return nil
}

// sampleQueueDepth polls the daemon's queue depth until the returned
// function is called, which stops the sampler and returns the maximum.
func sampleQueueDepth(e *env) func() int {
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		deepest := 0
		for {
			select {
			case <-t.C:
				if q := e.srv.QueueDepth(); q > deepest {
					deepest = q
				}
			case <-stop:
				done <- deepest
				return
			}
		}
	}()
	return func() int {
		close(stop)
		return <-done
	}
}

// nodeSample is how many requests, from the start of the sequence,
// contribute to the node.* operation counts: a prefix every run
// completes, so the counts repeat exactly for a given seed.
const nodeSample = 64

type counts struct {
	cells, faults, probes, allocs, allocFails, unloads float64
	flexEff, fixedEff                                  float64
}

// nodeCounts sums the simulator's operation counts from the delivered
// reports of the first nodeSample requests.
func nodeCounts(recs []*record) (counts, error) {
	var c counts
	for _, r := range recs {
		if r.idx >= nodeSample || !r.ok {
			continue
		}
		var rep struct {
			Points []struct {
				Arch       string  `json:"arch"`
				Eff        float64 `json:"eff"`
				Allocs     int64   `json:"allocs"`
				AllocFails int64   `json:"alloc_fails"`
				Unloads    int64   `json:"unloads"`
				Faults     int64   `json:"faults"`
				Probes     int64   `json:"probes"`
			} `json:"points"`
		}
		if err := json.Unmarshal(r.result, &rep); err != nil {
			return c, fmt.Errorf("decoding report of request %d: %w", r.idx, err)
		}
		for _, p := range rep.Points {
			c.cells++
			c.faults += float64(p.Faults)
			c.probes += float64(p.Probes)
			c.allocs += float64(p.Allocs)
			c.allocFails += float64(p.AllocFails)
			c.unloads += float64(p.Unloads)
			switch p.Arch {
			case "flexible":
				c.flexEff += p.Eff
			case "fixed":
				c.fixedEff += p.Eff
			}
		}
	}
	return c, nil
}
