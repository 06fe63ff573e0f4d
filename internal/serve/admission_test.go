package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// gatedRunner is a stub runJob whose jobs each block until their seed's
// gate is opened, so a test decides the order jobs finish in.
type gatedRunner struct {
	mu    sync.Mutex
	gates map[uint64]chan struct{}
}

func (g *gatedRunner) gate(seed uint64) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gates == nil {
		g.gates = make(map[uint64]chan struct{})
	}
	c, ok := g.gates[seed]
	if !ok {
		c = make(chan struct{})
		g.gates[seed] = c
	}
	return c
}

func (g *gatedRunner) run(ctx context.Context, j *Job) ([]byte, int, error) {
	select {
	case <-g.gate(j.Req.Seed):
		return []byte(`{}`), 0, nil
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// listedIDs returns the job table's listing order.
func listedIDs(s *Server) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for _, j := range s.listedLocked() {
		ids = append(ids, j.ID)
	}
	return ids
}

// TestPruneOrder pins the job table's pruning rule: over MaxJobs, the
// earliest-finished terminal job goes first, whatever order the jobs
// were submitted in; queued and running jobs never go, even with the
// table over its cap; and listing stays in submission order throughout.
func TestPruneOrder(t *testing.T) {
	cfg := testConfig()
	cfg.MaxJobs = 2
	cfg.JobRetention = time.Hour // only the cap triggers here
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var g gatedRunner
	s.runJob = g.run
	s.Start()
	defer s.Shutdown(context.Background())

	submit := func(seed uint64) *Job {
		t.Helper()
		req := tinyRequest()
		req.Seed = seed
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	present := func(j *Job) bool {
		_, ok := s.Job(j.ID)
		return ok
	}
	waitRunning := func(j *Job) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for j.StateNow() != StateRunning {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never started (state %s)", j.ID, j.StateNow())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// a is submitted first but finishes second.
	a, b := submit(1), submit(2)
	waitRunning(a)
	waitRunning(b)
	close(g.gate(2))
	waitDone(t, b)
	close(g.gate(1))
	waitDone(t, a)

	c := submit(3) // table: a b c — at the cap before c, nothing pruned
	waitRunning(c)
	if !present(a) || !present(b) {
		t.Fatal("a terminal job was pruned while the table was within MaxJobs")
	}
	d := submit(4) // over the cap: b finished first, so b goes, not a
	if present(b) {
		t.Error("earliest-finished job b survived the cap")
	}
	if !present(a) {
		t.Error("job a went first, but it finished after b")
	}
	waitRunning(d)
	e := submit(5) // over the cap again: a is the only terminal job left
	if present(a) {
		t.Error("terminal job a survived the cap")
	}
	f := submit(6) // over the cap, but c and d run and e queues
	for _, j := range []*Job{c, d, e, f} {
		if !present(j) {
			t.Errorf("non-terminal job %s was pruned", j.ID)
		}
	}
	if got, want := fmt.Sprint(listedIDs(s)), fmt.Sprint([]string{c.ID, d.ID, e.ID, f.ID}); got != want {
		t.Errorf("listing = %s, want submission order %s", got, want)
	}
	for seed := uint64(3); seed <= 6; seed++ {
		close(g.gate(seed))
	}
	for _, j := range []*Job{c, d, e, f} {
		waitDone(t, j)
	}
}

// TestRetentionPrunesOnlyExpired checks the age rule: a terminal job
// past JobRetention goes on the next submission, one that finished
// inside the window stays.
func TestRetentionPrunesOnlyExpired(t *testing.T) {
	cfg := testConfig()
	cfg.JobRetention = 300 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
		return []byte(`{}`), 0, nil
	}
	s.Start()
	defer s.Shutdown(context.Background())

	submit := func(seed uint64) *Job {
		t.Helper()
		req := tinyRequest()
		req.Seed = seed
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		return j
	}
	old := submit(1)
	time.Sleep(cfg.JobRetention + 100*time.Millisecond)
	recent := submit(2)
	submit(3) // prunes
	if _, ok := s.Job(old.ID); ok {
		t.Error("job past retention still in the table")
	}
	if _, ok := s.Job(recent.ID); !ok {
		t.Error("job inside the retention window was pruned")
	}
	if got, want := fmt.Sprint(listedIDs(s)), fmt.Sprint([]string{recent.ID, "j000003"}); got != want {
		t.Errorf("listing = %s, want %s", got, want)
	}
}

// BenchmarkSubmitRetained measures one submission against a job table
// holding 16 or 1024 retained terminal jobs. The request's report is
// stored up front, so every submission is a report hit — a job born
// terminal, no worker involved — and each one prunes one job to stay
// within MaxJobs: the steady state of a full table. Admission cost must
// not grow with the table.
func BenchmarkSubmitRetained(b *testing.B) {
	for _, retained := range []int{16, 1024} {
		b.Run(fmt.Sprintf("jobs=%d", retained), func(b *testing.B) {
			cfg := testConfig()
			cfg.MaxJobs = retained
			cfg.JobRetention = time.Hour
			s, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
				return []byte(`{}`), 0, nil // never reached: every submit hits
			}
			defer s.Shutdown(context.Background())
			req := tinyRequest()
			s.Points().Put(req.Key(), []byte(`{}`))
			for i := 0; i < retained; i++ {
				if _, _, err := s.Submit(req); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Submit(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
