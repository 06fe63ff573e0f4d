package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// overlapRequests returns two figure5 grid requests sharing the L=32
// column: 4 points each (2 latencies × 2 architectures), 6 distinct
// points between them, 2 shared.
func overlapRequests() (Request, Request) {
	a := Request{Experiment: "figure5", Seed: 1, Scale: "quick",
		F: []int{64}, R: []int{8}, L: []int{16, 32}}
	b := Request{Experiment: "figure5", Seed: 1, Scale: "quick",
		F: []int{64}, R: []int{8}, L: []int{32, 64}}
	return a, b
}

// TestOverlappingJobsShareSimulatedPoints is the tentpole acceptance
// test: two concurrent jobs whose grids overlap must run each shared
// point's simulation exactly once between them — the second requester
// either joins the in-flight computation or hits the stored entry,
// depending on timing, but never recomputes. Run under -race in CI
// (make test-race), where the cross-job Do path is exercised for real.
func TestOverlappingJobsShareSimulatedPoints(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	reqA, reqB := overlapRequests()

	// Submit both before starting the workers so they run concurrently
	// once Start fires, maximizing the chance of actual in-flight joins
	// (the counters below are correct for any interleaving).
	ja, status, err := s.Submit(reqA)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("submit A: status=%d err=%v", status, err)
	}
	jb, status, err := s.Submit(reqB)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("submit B: status=%d err=%v", status, err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	waitDone(t, ja)
	waitDone(t, jb)
	if ja.StateNow() != StateDone || jb.StateNow() != StateDone {
		t.Fatalf("states = %s, %s", ja.StateNow(), jb.StateNow())
	}

	c := s.PointCounters()
	// 8 point resolutions total across both jobs; 6 distinct cells, so
	// exactly 6 simulations and 2 shared resolutions (join if the
	// flight was still open, hit if it had landed).
	if c.Misses != 6 {
		t.Errorf("point misses = %d, want 6 (one simulation per distinct cell)", c.Misses)
	}
	if c.Hits+c.Joins != 2 {
		t.Errorf("hits+joins = %d+%d, want 2 (the shared L=32 column)", c.Hits, c.Joins)
	}
}

// TestFullyCoveredRequestAssemblesInline pins the planner fast path: a
// request whose every point is already stored — here the same cells in
// reversed grid order, which the whole-report cache cannot answer —
// returns a done job synchronously (200), simulating nothing.
func TestFullyCoveredRequestAssemblesInline(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	warm := Request{Experiment: "figure5", Seed: 1, Scale: "quick",
		F: []int{64}, R: []int{8}, L: []int{16, 32}}
	j, status, err := s.Submit(warm)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("warm submit: status=%d err=%v", status, err)
	}
	waitDone(t, j)
	if j.StateNow() != StateDone {
		t.Fatalf("warm job state = %s", j.StateNow())
	}
	missesAfterWarm := s.PointCounters().Misses

	// Same cells, reversed L order: a distinct report (row order is
	// part of the report's identity) but zero new simulation.
	reordered := warm
	reordered.L = []int{32, 16}
	j2, status, err := s.Submit(reordered)
	if err != nil || status != http.StatusOK {
		t.Fatalf("covered submit: status=%d err=%v", status, err)
	}
	if j2.StateNow() != StateDone {
		t.Fatalf("covered job state = %s, want done (inline assembly)", j2.StateNow())
	}
	if c := s.PointCounters(); c.Misses != missesAfterWarm {
		t.Errorf("covered request simulated %d new points, want 0", c.Misses-missesAfterWarm)
	}
	st := j2.Status(true)
	if st.Plan == nil || st.Plan.Points != 4 || st.Plan.Cached != 4 {
		t.Errorf("plan = %+v, want 4/4 covered", st.Plan)
	}
	var rep wireReport
	if err := json.Unmarshal(j2.Result(), &rep); err != nil {
		t.Fatalf("inline result not valid report JSON: %v", err)
	}
	if len(rep.Points) != 4 {
		t.Errorf("inline report has %d points, want 4", len(rep.Points))
	}
	// Row order follows the requested grid, not the warm job's.
	if rep.Points[0].L != 32 {
		t.Errorf("first row L = %d, want 32 (requested order)", rep.Points[0].L)
	}

	// The partially covered case still queues: growing the grid by one
	// row costs one queue slot but only the new cells' simulations.
	grown := warm
	grown.L = []int{16, 32, 64}
	j3, status, err := s.Submit(grown)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("grown submit: status=%d err=%v", status, err)
	}
	waitDone(t, j3)
	if c := s.PointCounters(); c.Misses != missesAfterWarm+2 {
		t.Errorf("grown grid simulated %d new points, want 2", c.Misses-missesAfterWarm)
	}
	if st := j3.Status(false); st.Plan == nil || st.Plan.Points != 6 || st.Plan.Cached != 4 {
		t.Errorf("grown plan = %+v, want 6 points / 4 cached", st.Plan)
	}
}

// TestPointStoreDisabled checks the opt-out: with a negative budget the
// server runs storeless — no plan info, no metrics series, identical
// results.
func TestPointStoreDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.PointCacheBytes = -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	if s.points != nil {
		t.Fatal("negative PointCacheBytes did not disable the store")
	}
	j, status, err := s.Submit(tinyRequest())
	if err != nil || status != http.StatusCreated {
		t.Fatalf("submit: status=%d err=%v", status, err)
	}
	waitDone(t, j)
	if j.StateNow() != StateDone {
		t.Fatalf("state = %s", j.StateNow())
	}
	if st := j.Status(false); st.Plan != nil {
		t.Errorf("storeless job carries a plan: %+v", st.Plan)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rr.Body.String(), "rrserve_pointstore_") {
		t.Error("disabled store still exports rrserve_pointstore_* series")
	}
}

// TestPointStoreMetricsExported checks the satellite metrics: after a
// warm re-submission the /metrics endpoint reports point hits, misses,
// plan totals, and the store gauges.
func TestPointStoreMetricsExported(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	j, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	reordered := tinyRequest()
	reordered.L = []int{16} // same single cell; hit the report cache
	if _, _, err := s.Submit(reordered); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"rrserve_pointstore_hits_total",
		"rrserve_pointstore_misses_total 2",
		"rrserve_pointstore_coalesced_total",
		"rrserve_pointstore_evictions_total",
		"rrserve_pointstore_spill_bytes_total",
		"rrserve_pointstore_verify_failures_total",
		"rrserve_pointstore_entries 3", // two points and the job's report
		"rrserve_plan_points_total 2",
		"rrserve_plan_cached_points_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPointStorePersistsAcrossRestart checks warm-restart behaviour: a
// daemon with a point-cache directory that shuts down cleanly answers,
// after restart, an exact repeat from the persisted report and a
// reordered grid from the persisted points — simulating nothing. The
// store's points.json is the only index involved.
func TestPointStorePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.PointCacheDir = dir

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	j, _, err := s.Submit(multiCellRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") && e.Name() != "points.json" {
			t.Errorf("unexpected index file %s beside points.json", e.Name())
		}
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Shutdown(context.Background())

	// The exact repeat is a report hit: terminal at submit time.
	j2, status, err := s2.Submit(multiCellRequest())
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || !j2.Status(false).Cached {
		t.Fatalf("restarted repeat: status=%d cached=%v, want 200 from the stored report",
			status, j2.Status(false).Cached)
	}
	if !bytes.Equal(j2.Result(), j.Result()) {
		t.Error("restarted report differs from the original")
	}

	// A reordered grid has no stored report but every point on disk: it
	// assembles inline.
	reordered := multiCellRequest()
	reordered.F = []int{64, 32}
	j3, status, err := s2.Submit(reordered)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || j3.Status(false).Cached || j3.StateNow() != StateDone {
		t.Fatalf("restarted reorder: status=%d state=%s, want inline assembly", status, j3.StateNow())
	}
	if c := s2.PointCounters(); c.Misses != 0 {
		t.Errorf("restarted daemon simulated %d points, want 0 (disk tier)", c.Misses)
	}
}

// TestReportProbeAccounting pins the accounting split between the two
// entry kinds sharing the store: each report probe moves
// rrserve_cache_hits_total or rrserve_cache_misses_total by exactly one
// and leaves the point store's counters alone, so their hits and misses
// keep meaning "points resolved" and "points simulated".
func TestReportProbeAccounting(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	j, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	reportCounts := func() (hits, misses int) {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		for _, line := range strings.Split(rr.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "rrserve_cache_hits_total "); ok {
				hits, _ = strconv.Atoi(v)
			}
			if v, ok := strings.CutPrefix(line, "rrserve_cache_misses_total "); ok {
				misses, _ = strconv.Atoi(v)
			}
		}
		return hits, misses
	}
	// figure3 has no point keys: its run never touches the store, so the
	// miss below is the probe alone.
	keyless := Request{Experiment: "figure3", Seed: 1}
	for _, step := range []struct {
		name                 string
		req                  Request
		wantHits, wantMisses int // deltas
	}{
		{"sweep report hit", tinyRequest(), 1, 0},
		{"keyless report miss", keyless, 0, 1},
		{"keyless report hit", keyless, 1, 0},
	} {
		points := s.PointCounters()
		hits0, misses0 := reportCounts()
		j, _, err := s.Submit(step.req)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		waitDone(t, j)
		if got := s.PointCounters(); got != points {
			t.Errorf("%s moved the point counters: %+v -> %+v", step.name, points, got)
		}
		hits, misses := reportCounts()
		if hits-hits0 != step.wantHits || misses-misses0 != step.wantMisses {
			t.Errorf("%s: report hits/misses moved by %d/%d, want %d/%d",
				step.name, hits-hits0, misses-misses0, step.wantHits, step.wantMisses)
		}
	}
}

// TestReportHitSkipsPlanning checks that a submission whose report is
// already stored derives no point keys — the report answers it whole —
// while the client still gets what a planned report hit returns: 200, a
// cached done job, the same report bytes, and a plan counting every
// cell as covered.
func TestReportHitSkipsPlanning(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var derived atomic.Int64
	s.pointKeys = func(req Request) []string {
		derived.Add(1)
		return requestPointKeys(req)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	req := multiCellRequest()
	j1, status, err := s.Submit(req)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("first submit: status=%d err=%v", status, err)
	}
	waitDone(t, j1)
	if derived.Load() != 1 {
		t.Fatalf("first submit derived keys %d times, want 1", derived.Load())
	}

	j2, status, err := s.Submit(req)
	if err != nil || status != http.StatusOK {
		t.Fatalf("report-hit submit: status=%d err=%v", status, err)
	}
	if n := derived.Load(); n != 1 {
		t.Errorf("report-hit submit derived point keys (%d derivations, want 1)", n)
	}
	st, first := j2.Status(true), j1.Status(true)
	if st.State != StateDone || !st.Cached {
		t.Errorf("report hit: state=%s cached=%v, want done/cached", st.State, st.Cached)
	}
	cells := len(requestPointKeys(req))
	if st.Plan == nil || st.Plan.Points != cells || st.Plan.Cached != cells {
		t.Errorf("report-hit plan = %+v, want %d/%d", st.Plan, cells, cells)
	}
	if !bytes.Equal(st.Result, first.Result) {
		t.Error("report-hit result bytes differ from the run that stored them")
	}
	// The HTTP body is the same Status, minus the per-job identity.
	st.ID, st.CreatedAt = "", time.Time{}
	want := Status{Key: first.Key, Experiment: first.Experiment, Seed: first.Seed,
		Scale: first.Scale, Fidelity: first.Fidelity, Tenant: first.Tenant,
		State: StateDone, Cached: true, Plan: &Plan{Points: cells, Cached: cells},
		Result: first.Result}
	got, _ := json.Marshal(st)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("report-hit status body:\n got %s\nwant %s", got, wantJSON)
	}
}
