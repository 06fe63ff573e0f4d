package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"regreloc/internal/serve"
)

// requestTimeout bounds every HTTP call; a long-poll asks the daemon to
// answer well within it.
const (
	requestTimeout = time.Minute
	pollWindow     = "30s"
)

// client speaks the daemon's HTTP API over at most `clients` keep-alive
// connections. With a tracer attached, every call is recorded as a
// span of the request it serves.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string) *client {
	t := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: t, Timeout: requestTimeout}}
}

// record is the outcome of one request: its timings from due to
// result, what the daemon said about it, and the delivered bytes.
type record struct {
	idx int
	it  item

	due, start time.Time
	first, end time.Time // first answer (POST response) and result bytes

	ok  bool
	err string

	inline bool // answered by the POST itself, assembled from the point store
	waited bool // long-polled the job's events to a terminal state
	events int  // events those long-polls delivered

	submit, wait, fetch time.Duration
	fetchBytes          int

	result  []byte // compact canonical report
	partial []byte // adaptive: compact analytic partial from the POST response
}

// ttr is the time to result, from when the request was due.
func (r *record) ttr() time.Duration { return r.end.Sub(r.due) }

// firstAnswer is the time from due to the POST response: the analytic
// partial on adaptive requests, the job acknowledgement otherwise.
func (r *record) firstAnswer() time.Duration { return r.first.Sub(r.due) }

// exchange runs one request to completion: submit, long-poll the job's
// events until a terminal state unless the POST already answered it,
// then fetch the result bytes. Failures are recorded, not returned.
func (c *client) exchange(rec *record) {
	rec.start = time.Now()
	root := c.tr.begin("request", rec.idx, 0, rec.due)
	defer func() { c.tr.end(root, rec.end) }()
	if rec.start.Sub(rec.due) > 0 {
		c.tr.end(c.tr.begin("bench.gen_wait", rec.idx, root, rec.due), rec.start)
	}
	fail := func(format string, args ...any) {
		rec.err = fmt.Sprintf(format, args...)
		rec.end = time.Now()
	}

	body, err := json.Marshal(rec.it.req)
	if err != nil {
		fail("encoding request: %v", err)
		return
	}
	t0 := time.Now()
	sp := c.tr.begin("serve.submit", rec.idx, root, t0)
	status, raw, err := c.call(http.MethodPost, "/v1/jobs", body)
	rec.first = time.Now()
	rec.submit = rec.first.Sub(t0)
	c.tr.end(sp, rec.first)
	if err != nil {
		fail("submit: %v", err)
		return
	}
	if status != http.StatusOK && status != http.StatusCreated {
		fail("submit: status %d: %s", status, bytes.TrimSpace(raw))
		return
	}
	var st serve.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		fail("submit: decoding status: %v", err)
		return
	}
	rec.inline = status == http.StatusOK && !st.Cached && st.State == serve.StateDone
	if rec.it.req.Fidelity == "adaptive" {
		if len(st.Partial) == 0 {
			fail("adaptive submit returned no partial")
			return
		}
		rec.partial = compact(st.Partial)
	}

	if st.State != serve.StateDone {
		rec.waited = true
		t1 := time.Now()
		sp := c.tr.begin("serve.wait", rec.idx, root, t1)
		final, err := c.await(st.ID, rec, sp)
		t2 := time.Now()
		rec.wait = t2.Sub(t1)
		c.tr.end(sp, t2)
		if err != nil {
			fail("waiting for %s: %v", st.ID, err)
			return
		}
		if final != serve.StateDone {
			fail("job %s ended %s", st.ID, final)
			return
		}
	}

	t3 := time.Now()
	sp = c.tr.begin("serve.fetch", rec.idx, root, t3)
	status, raw, err = c.call(http.MethodGet, "/v1/jobs/"+st.ID, nil)
	rec.end = time.Now()
	rec.fetch = rec.end.Sub(t3)
	rec.fetchBytes = len(raw)
	c.tr.end(sp, rec.end)
	if err != nil || status != http.StatusOK {
		fail("fetch %s: status %d: %v", st.ID, status, err)
		return
	}
	var done serve.Status
	if err := json.Unmarshal(raw, &done); err != nil {
		fail("fetch %s: decoding status: %v", st.ID, err)
		return
	}
	if done.State != serve.StateDone || len(done.Result) == 0 {
		fail("fetch %s: state %s without a result", st.ID, done.State)
		return
	}
	rec.result = compact(done.Result)
	rec.ok = true
}

// await long-polls a job's event log until its terminal state event
// and returns that state. Every event delivered counts on rec.
func (c *client) await(id string, rec *record, parent int64) (serve.State, error) {
	var after int64
	for {
		sp := c.tr.begin("serve.poll", rec.idx, parent, time.Now())
		status, raw, err := c.call(http.MethodGet,
			fmt.Sprintf("/v1/jobs/%s/events?after=%d&poll=%s", id, after, pollWindow), nil)
		c.tr.end(sp, time.Now())
		if err != nil {
			return "", err
		}
		if status != http.StatusOK {
			return "", fmt.Errorf("events: status %d: %s", status, bytes.TrimSpace(raw))
		}
		var page struct {
			Events []serve.Event `json:"events"`
			Next   int64         `json:"next"`
		}
		if err := json.Unmarshal(raw, &page); err != nil {
			return "", fmt.Errorf("events: %v", err)
		}
		rec.events += len(page.Events)
		for _, ev := range page.Events {
			if ev.Type == serve.EventState && isTerminal(ev.State) {
				return ev.State, nil
			}
		}
		after = page.Next
	}
}

func isTerminal(s serve.State) bool {
	return s == serve.StateDone || s == serve.StateFailed || s == serve.StateCanceled
}

// call performs one HTTP exchange and returns the status and the whole
// response body.
func (c *client) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, raw, nil
}

// runAll sends the requests over all client connections and waits for
// every result; set-up uses it to warm the daemon.
func (c *client) runAll(reqs []serve.Request) error {
	recs := make([]*record, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				recs[i] = &record{idx: -1, it: item{req: reqs[i]}, due: time.Now()}
				c.exchange(recs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, r := range recs {
		if !r.ok {
			return fmt.Errorf("set-up request %s seed %d: %s", r.it.req.Experiment, r.it.req.Seed, r.err)
		}
	}
	return nil
}

// compact returns the canonical (whitespace-free) form of a JSON value
// the daemon pretty-printed inside its status document.
func compact(raw []byte) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return append([]byte(nil), raw...)
	}
	return b.Bytes()
}
