package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if got := run([]string{"-bogus"}, &buf, nil, nil); got != 2 {
		t.Errorf("bad flag exit = %d, want 2", got)
	}
	buf.Reset()
	if got := run([]string{"-queue", "0"}, &buf, nil, nil); got != 2 {
		t.Errorf("-queue 0 exit = %d, want 2", got)
	}
	if !strings.Contains(buf.String(), "must be >= 1") {
		t.Errorf("missing usage message: %q", buf.String())
	}
	buf.Reset()
	if got := run([]string{"-role", "conductor"}, &buf, nil, nil); got != 2 {
		t.Errorf("bad -role exit = %d, want 2", got)
	}
	if got := run([]string{"-role", "coordinator"}, io.Discard, nil, nil); got != 2 {
		t.Errorf("coordinator without -cluster-workers exit = %d, want 2", got)
	}
	if got := run([]string{"-role", "worker", "-cluster-workers", "http://x:1"}, io.Discard, nil, nil); got != 2 {
		t.Errorf("worker with -cluster-workers exit = %d, want 2", got)
	}
	if got := run([]string{"-role", "coordinator", "-cluster-workers", "not a url"}, io.Discard, nil, nil); got != 2 {
		t.Errorf("bad worker URL exit = %d, want 2", got)
	}
	if got := run([]string{"-role", "coordinator", "-cluster-workers", "http://x:1", "-cluster-quorum", "5"}, io.Discard, nil, nil); got != 2 {
		t.Errorf("quorum > workers exit = %d, want 2", got)
	}
}

// TestDaemonLifecycle drives the daemon end to end in-process: boot,
// readiness, a tiny sweep over HTTP, cached resubmission, metrics,
// and graceful drain.
func TestDaemonLifecycle(t *testing.T) {
	stop := make(chan struct{})
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{
			"-addr", "127.0.0.1:0",
			"-queue", "4",
			"-workers", "1",
			"-point-workers", "2",
			"-point-cache-dir", t.TempDir(),
			"-drain-timeout", "10s",
		}, io.Discard, stop, ready)
	}()

	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case code := <-exit:
		t.Fatalf("daemon exited early with %d", code)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/readyz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("readyz: %v %v", err, resp)
	}
	resp.Body.Close()

	submit := func() (int, map[string]any) {
		body := `{"experiment":"figure5","seed":1,"scale":"quick","f":[64],"r":[8],"l":[16]}`
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	code, job := submit()
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d (%v)", code, job)
	}
	id := job["id"].(string)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]any
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st["state"] == "done" {
			break
		}
		if st["state"] == "failed" || st["state"] == "canceled" {
			t.Fatalf("job ended %v: %v", st["state"], st["error"])
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Resubmission is a cache hit, answered terminally at submit time.
	code, job = submit()
	if code != http.StatusOK || job["cached"] != true {
		t.Fatalf("resubmit: status=%d cached=%v", code, job["cached"])
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"rrserve_engine_runs_total 1",
		"rrserve_cache_hits_total 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	close(stop)
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("drain exit = %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// TestClusterLifecycle boots three worker daemons and a coordinator
// in-process, checks the quorum gate on /readyz, runs a sweep through
// the fleet, and verifies the cluster metrics report all workers
// healthy with compute traffic.
func TestClusterLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four daemons and runs a sweep")
	}
	type daemon struct {
		stop chan struct{}
		exit chan int
	}
	boot := func(args ...string) (string, daemon) {
		d := daemon{stop: make(chan struct{}), exit: make(chan int, 1)}
		ready := make(chan string, 1)
		go func() {
			d.exit <- run(append([]string{"-addr", "127.0.0.1:0", "-drain-timeout", "10s"}, args...), io.Discard, d.stop, ready)
		}()
		select {
		case addr := <-ready:
			return addr, d
		case code := <-d.exit:
			t.Fatalf("daemon %v exited early with %d", args, code)
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon %v never became ready", args)
		}
		panic("unreachable")
	}
	drain := func(d daemon) {
		close(d.stop)
		select {
		case <-d.exit:
		case <-time.After(15 * time.Second):
			t.Error("daemon did not drain")
		}
	}

	var workerAddrs []string
	for i := 0; i < 3; i++ {
		addr, d := boot("-role", "worker", "-workers", "1", "-point-workers", "2")
		defer drain(d)
		workerAddrs = append(workerAddrs, "http://"+addr)
	}
	coordAddr, coord := boot(
		"-role", "coordinator",
		"-cluster-workers", strings.Join(workerAddrs, ","),
		"-cluster-quorum", "2",
		"-cluster-batch", "2",
		"-workers", "1", "-point-workers", "2",
	)
	defer drain(coord)
	base := "http://" + coordAddr

	// The coordinator probes synchronously at startup, so with all three
	// workers already up readyz passes quorum immediately.
	resp, err := http.Get(base + "/readyz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("coordinator readyz: %v %v", err, resp)
	}
	resp.Body.Close()

	body := `{"experiment":"figure5","seed":1,"scale":"quick","f":[32,64],"r":[8,32],"l":[16]}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job map[string]any
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d (%v)", resp.StatusCode, job)
	}
	id := job["id"].(string)
	deadline := time.Now().Add(45 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]any
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st["state"] == "done" {
			break
		}
		if st["state"] == "failed" || st["state"] == "canceled" {
			t.Fatalf("job ended %v: %v", st["state"], st["error"])
		}
		if time.Now().After(deadline) {
			t.Fatal("clustered job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.Count(string(metrics), "rrserve_cluster_worker_up{"); got != 3 {
		t.Errorf("worker_up series = %d, want 3", got)
	}
	if strings.Contains(string(metrics), "rrserve_cluster_workers_healthy 3") == false {
		t.Error("metrics do not report 3 healthy workers")
	}
	if strings.Contains(string(metrics), "rrserve_cluster_points_total 0\n") {
		t.Error("coordinator accepted no points from the fleet")
	}
}
