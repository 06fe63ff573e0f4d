package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"regreloc/internal/pointstore"
)

// These tests pin the five latent bugs fixed in the serving-hardening
// PR; each fails against the pre-fix code.

// TestInlineAssemblyRecheckRequeuesOnEviction covers the unbounded
// inline-assembly bug: a request planned as fully point-covered could
// lose its entries to eviction between planning and assembly, and the
// engine's decode-miss fallback would then simulate the whole grid on
// the submitter's (HTTP handler's) goroutine — bypassing the queue,
// the worker pool, and the job timeout. The fix re-checks coverage at
// assembly time and requeues past a small miss budget.
func TestInlineAssemblyRecheckRequeuesOnEviction(t *testing.T) {
	cfg := testConfig()
	cfg.PointCacheBytes = 1 << 20
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	// Three grid orders address the same points under three job keys, so
	// no submission below is answered by a stored report: each reaches
	// the point-store path.
	first, second, third := multiCellRequest(), multiCellRequest(), multiCellRequest()
	second.F = []int{64, 32}
	third.R = []int{16, 8}

	// First run populates the point store.
	j1, status, err := s.Submit(first)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("cold submit: status=%d err=%v", status, err)
	}
	waitDone(t, j1)

	// Control: with the store intact a reordered grid assembles inline
	// (200).
	j2, status, err := s.Submit(second)
	if err != nil || status != http.StatusOK || j2.Status(false).Cached {
		t.Fatalf("covered reorder: status=%d err=%v, want inline assembly", status, err)
	}
	waitDone(t, j2)

	// Now race an eviction into the plan→assembly window: the hook runs
	// after admission (plan said fully covered) and floods the memory-only
	// store until every real entry is evicted — and therefore lost.
	junk := bytes.Repeat([]byte("x"), 64<<10)
	s.postAdmitHook = func(j *Job) {
		for i := 0; i < 64; i++ {
			s.points.Put(fmt.Sprintf("junk%d", i), junk)
		}
	}
	defer func() { s.postAdmitHook = nil }()

	j3, status, err := s.Submit(third)
	if err != nil {
		t.Fatalf("post-eviction submit: %v", err)
	}
	// The re-check must send the job to the queue (201), not simulate
	// the sweep inline and report 200.
	if status != http.StatusCreated {
		t.Fatalf("post-eviction submit: status=%d, want 201 (requeued)", status)
	}
	waitDone(t, j3)
	if j3.StateNow() != StateDone {
		t.Fatalf("requeued job state = %s", j3.StateNow())
	}
	// The reference for the third order comes from a storeless server,
	// which simulates every cell from scratch.
	refCfg := testConfig()
	refCfg.PointCacheBytes = -1
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	defer ref.Shutdown(context.Background())
	jr, _, err := ref.Submit(third)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jr)
	if !bytes.Equal(j3.Result(), jr.Result()) {
		t.Error("requeued recompute differs from a from-scratch run")
	}
}

// TestShutdownNeverStartedFinalizesQueued covers the hung-waiter bug:
// Shutdown on a server whose Start was never called has no workers to
// drain the queue, so queued jobs' Done channels never closed and
// waiters blocked forever. The fix drains and finalizes the backlog as
// canceled.
func TestShutdownNeverStartedFinalizesQueued(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// No Start: the job sits in the queue forever.
	j, status, err := s.Submit(tinyRequest())
	if err != nil || status != http.StatusCreated {
		t.Fatalf("submit: status=%d err=%v", status, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown of a never-started server took %v", d)
	}
	select {
	case <-j.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("queued job's Done channel never closed (waiters would hang)")
	}
	if got := j.StateNow(); got != StateCanceled {
		t.Fatalf("drained job state = %s, want canceled", got)
	}
	if _, status, _ := s.Submit(tinyRequest()); status != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit status = %d, want 503", status)
	}
}

// TestShutdownIndexErrorReleasesLock: a failed index write must surface
// from Shutdown, and must not strand the store's directory lock — a
// daemon restarting on the same dir would otherwise refuse to start.
func TestShutdownIndexErrorReleasesLock(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.PointCacheDir = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	j, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	// Sabotage the index write: its temp path is a directory, so the
	// write fails regardless of permissions.
	if err := os.MkdirAll(filepath.Join(dir, "points.json.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	shutdownErr := s.Shutdown(context.Background())
	if shutdownErr == nil {
		t.Fatal("shutdown swallowed the index error")
	}
	if !strings.Contains(shutdownErr.Error(), "point-store index") {
		t.Errorf("shutdown error does not name the index: %v", shutdownErr)
	}
	st, err := pointstore.New(1<<20, dir)
	if err != nil {
		t.Fatalf("dir lock not released after a failed index write: %v", err)
	}
	st.Close()
}

// TestInlineAssemblyEvictionHammer races concurrent submissions (some
// inline-assembled, some queued), cancellations, and a point-store
// eviction storm around the plan→assembly window. Run under -race in
// CI; any double-finalize, double-release of a tenant slot, or lost
// Done close shows up here.
func TestInlineAssemblyEvictionHammer(t *testing.T) {
	cfg := testConfig()
	cfg.PointCacheBytes = 1 << 18
	cfg.QueueCap = 64
	cfg.Workers = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	stop := make(chan struct{})
	var evict sync.WaitGroup
	evict.Add(1)
	go func() {
		defer evict.Done()
		junk := bytes.Repeat([]byte("e"), 16<<10)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.points.Put(fmt.Sprintf("evict%d", i%64), junk)
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				req := tinyRequest()
				req.F = []int{32, 64}
				req.Seed = uint64(1 + (g+i)%3) // few keys: repeats hit stored reports or the inline path
				j, status, err := s.Submit(req)
				if err != nil {
					if status == http.StatusTooManyRequests {
						continue
					}
					t.Errorf("submit: status=%d err=%v", status, err)
					return
				}
				if i%4 == 0 {
					go s.Cancel(j.ID)
				}
				waitDone(t, j)
				if got := j.StateNow(); !got.terminal() {
					t.Errorf("job %s non-terminal after Done: %s", j.ID, got)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	evict.Wait()
}
