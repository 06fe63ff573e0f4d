package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// multiCellRequest returns a sweep with four grid cells, enough for
// the engine's progress hook to fire several times before completion.
func multiCellRequest() Request {
	return Request{Experiment: "figure5", Seed: 7, Scale: "quick",
		F: []int{32, 64}, R: []int{8, 16}, L: []int{16}}
}

// readSSE performs a GET against the events endpoint and parses the
// whole stream (the server closes it after the terminal event).
func readSSE(t *testing.T, ts *httptest.Server, jobID string, lastEventID int64) []Event {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastEventID, 10))
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content-type %q", ct)
	}
	var events []Event
	var id int64 = -1
	var typ, data string
	flush := func() {
		if data == "" {
			return
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event data %q: %v", data, err)
		}
		if id != ev.ID {
			t.Errorf("frame id %d != payload id %d", id, ev.ID)
		}
		if typ != ev.Type {
			t.Errorf("frame event %q != payload type %q", typ, ev.Type)
		}
		events = append(events, ev)
		id, typ, data = -1, "", ""
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			flush()
		case strings.HasPrefix(line, ":"): // keepalive comment
		case strings.HasPrefix(line, "retry:"):
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	flush()
	return events
}

// TestSSEStreamOrder is the streaming acceptance criterion: on a
// multi-cell sweep the SSE stream carries at least one progress event
// before the terminal state event, IDs are contiguous from 1, progress
// is monotonic, and the stream ends exactly at the terminal event.
func TestSSEStreamOrder(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, status, err := s.Submit(multiCellRequest())
	if err != nil || status != http.StatusCreated {
		t.Fatalf("submit: status=%d err=%v", status, err)
	}
	events := readSSE(t, ts, j.ID, 0)
	if len(events) < 3 {
		t.Fatalf("only %d events: %+v", len(events), events)
	}
	progressBeforeTerminal := 0
	lastDone := -1
	for i, ev := range events {
		if ev.ID != int64(i+1) {
			t.Errorf("event %d has ID %d, want %d (contiguous from 1)", i, ev.ID, i+1)
		}
		terminal := ev.Type == EventState && ev.State.terminal()
		if terminal && i != len(events)-1 {
			t.Errorf("terminal event at index %d of %d: stream must end there", i, len(events))
		}
		if ev.Type == EventProgress {
			if ev.Done < lastDone {
				t.Errorf("progress went backwards: %d after %d", ev.Done, lastDone)
			}
			lastDone = ev.Done
			progressBeforeTerminal++
		}
	}
	last := events[len(events)-1]
	if last.Type != EventState || last.State != StateDone {
		t.Fatalf("stream did not end with done state: %+v", last)
	}
	if progressBeforeTerminal < 1 {
		t.Errorf("no progress event before terminal on a multi-cell sweep: %+v", events)
	}
}

// TestSSEReconnectResumes pins the Last-Event-ID contract: resuming
// from a mid-stream position replays exactly the suffix — no drops, no
// duplicates, no re-numbering.
func TestSSEReconnectResumes(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _, err := s.Submit(multiCellRequest())
	if err != nil {
		t.Fatal(err)
	}
	full := readSSE(t, ts, j.ID, 0)
	if len(full) < 3 {
		t.Fatalf("need >= 3 events to test resume, got %d", len(full))
	}
	mid := full[len(full)/2].ID
	resumed := readSSE(t, ts, j.ID, mid)
	var wantSuffix []Event
	for _, ev := range full {
		if ev.ID > mid {
			wantSuffix = append(wantSuffix, ev)
		}
	}
	if len(resumed) != len(wantSuffix) {
		t.Fatalf("resume from %d returned %d events, want %d", mid, len(resumed), len(wantSuffix))
	}
	for i := range resumed {
		if !reflect.DeepEqual(resumed[i], wantSuffix[i]) {
			t.Errorf("resumed[%d] = %+v, want %+v", i, resumed[i], wantSuffix[i])
		}
	}

	// The ?after= query form resumes identically (for clients that
	// cannot set headers).
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", ts.URL, j.ID, full[len(full)-1].ID-1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, string(StateDone)) {
		t.Errorf("?after= resume missing terminal event: %q", body)
	}
}

// TestLongPollFallback exercises the ?poll= JSON mode: a poll after
// completion returns the full log plus a cursor, and polling from the
// cursor returns an empty batch at the deadline rather than hanging.
func TestLongPollFallback(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _, err := s.Submit(multiCellRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	var got struct {
		Events []Event `json:"events"`
		Next   int64   `json:"next"`
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events?poll=5s")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(got.Events) == 0 {
		t.Fatal("long poll returned no events for a finished job")
	}
	if got.Events[0].ID != 1 {
		t.Errorf("first event ID = %d, want 1", got.Events[0].ID)
	}
	last := got.Events[len(got.Events)-1]
	if last.Type != EventState || !last.State.terminal() {
		t.Errorf("last long-poll event not terminal: %+v", last)
	}
	if got.Next != last.ID {
		t.Errorf("next = %d, want %d", got.Next, last.ID)
	}

	// Polling past the end returns promptly with an empty batch and an
	// unchanged cursor once the window expires.
	start := time.Now()
	resp2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?after=%d&poll=1s", ts.URL, j.ID, got.Next))
	if err != nil {
		t.Fatal(err)
	}
	var empty struct {
		Events []Event `json:"events"`
		Next   int64   `json:"next"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&empty); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(empty.Events) != 0 || empty.Next != got.Next {
		t.Errorf("drained poll: events=%d next=%d, want 0 events next=%d", len(empty.Events), empty.Next, got.Next)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("drained poll took %v, want ~1s window", d)
	}

	// Accept: application/json selects the same fallback without query
	// parameters.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+j.ID+"/events", nil)
	req.Header.Set("Accept", "application/json")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if ct := resp3.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Accept fallback content-type = %q", ct)
	}

	// Unknown jobs 404 on the events endpoint like everywhere else.
	resp4, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job: %d, want 404", resp4.StatusCode)
	}
}

// TestSSEStreamsLiveProgress holds the job mid-run and asserts a
// subscriber connected before completion receives a progress event
// while the job is still running — streaming, not just replay.
func TestSSEStreamsLiveProgress(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	s.runJob = func(ctx context.Context, j *Job) ([]byte, int, error) {
		j.setProgress(1, 4)
		<-gate
		j.setProgress(4, 4)
		return []byte(`{}`), 4, nil
	}
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _, err := s.Submit(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}

	// Poll (long-poll mode) until the first progress event arrives; the
	// job cannot be done yet because the gate is still closed.
	deadline := time.Now().Add(10 * time.Second)
	sawLiveProgress := false
	for !sawLiveProgress {
		if time.Now().After(deadline) {
			t.Fatal("no progress event while job was running")
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events?poll=1s")
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Events []Event `json:"events"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, ev := range got.Events {
			if ev.Type == EventProgress {
				if j.StateNow().terminal() {
					t.Fatal("job finished before the gate opened")
				}
				sawLiveProgress = true
			}
		}
	}
	close(gate)
	waitDone(t, j)
}

// TestFinishedJobLogIsCompact pins what a finished job keeps, since up
// to MaxJobs of them stay in the job table. A 16-cell sim job (queued,
// running, one progress event per cell, done) holds its whole event
// log in at most 1 KiB and still replays it intact; a done adaptive job
// drops its analytic partial and refinement state but keeps its bounds.
func TestFinishedJobLogIsCompact(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	wait := func(req Request) *Job {
		t.Helper()
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(time.Minute):
			t.Fatalf("%s job did not finish", req.Fidelity)
		}
		if st := j.StateNow(); st != StateDone {
			t.Fatalf("%s job ended %s", req.Fidelity, st)
		}
		return j
	}
	req := Request{Experiment: "figure5", Seed: 11, Scale: "quick",
		F: []int{64}, R: []int{8, 32}, L: []int{16, 32, 64, 128}}

	j := wait(req)
	j.mu.Lock()
	n, size := len(j.events), cap(j.events)*int(unsafe.Sizeof(eventRec{}))
	for _, r := range j.events {
		if r.rare != nil {
			size += int(unsafe.Sizeof(eventRare{}))
		}
	}
	j.mu.Unlock()
	if size > 1024 {
		t.Errorf("finished 16-cell job keeps a %d-byte event log (%d events), want <= 1024", size, n)
	}
	events, _ := j.EventsSince(0)
	if len(events) != n || n < 19 {
		t.Fatalf("replayed %d of %d events, want all of at least 19", len(events), n)
	}
	for i, ev := range events {
		if ev.ID != int64(i+1) {
			t.Fatalf("event %d has ID %d", i, ev.ID)
		}
	}
	if last := events[n-1]; last.Type != EventState || last.State != StateDone {
		t.Errorf("last replayed event %+v, want the done state", last)
	}

	req.Fidelity, req.Seed = "adaptive", 12
	j = wait(req)
	j.mu.Lock()
	kept := j.partial != nil || j.analyticEff != nil || j.refineBuf != nil || j.allDeltas != nil
	j.mu.Unlock()
	if kept {
		t.Error("done adaptive job still holds its partial or refinement state")
	}
	if st := j.Status(false); st.Bounds == nil || st.Bounds.Cells != 16 {
		t.Errorf("done adaptive job lost its bounds: %+v", st.Bounds)
	}
}
