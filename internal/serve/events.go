package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// This file is the streaming-results layer: every job keeps an
// ordered event log (state transitions plus batched sweep-progress
// updates, fed by the engine's per-call Scale.Progress hook), and
// GET /v1/jobs/{id}/events serves it two ways:
//
//   - Server-Sent Events (default): events stream as they happen and
//     the connection closes after the terminal state event. Each event
//     carries an `id:` field; a client that reconnects with the
//     standard Last-Event-ID header (or ?after=N) resumes exactly
//     where the truncated stream stopped — the log is replayed from
//     that ID, never re-numbered, so reconnects can neither drop nor
//     duplicate events.
//   - Long-poll JSON (?poll=1s..60s or Accept: application/json):
//     returns the events after the given ID, waiting up to the poll
//     window for at least one to arrive. For clients (or proxies)
//     that cannot hold an SSE stream open.

// Event types.
const (
	// EventProgress reports batched sweep-cell completion: Done of
	// Total cells finished (cells resolved from the point store count
	// immediately, so a mostly-cached sweep starts near Total).
	EventProgress = "progress"
	// EventState reports a lifecycle transition; the terminal one
	// (done/failed/canceled) is always the stream's last event.
	EventState = "state"
	// EventPartial announces an adaptive job's immediate analytic
	// answer. It is always event 1 on an adaptive job — before the
	// queued-state event — so a subscriber never sees the job without
	// knowing a partial result is already fetchable.
	EventPartial = "partial"
	// EventCells carries a batch of simulator-refined cells of an
	// adaptive job, each with its analytic prediction and the absolute
	// error between the two.
	EventCells = "cells"
	// EventBounds publishes an adaptive job's final measured error
	// bounds, immediately before the terminal state event.
	EventBounds = "bounds"
)

// CellDelta is one refined grid cell of an adaptive job: the
// simulator's efficiency next to the analytic prediction it replaces.
type CellDelta struct {
	Panel    string  `json:"panel"`
	Arch     string  `json:"arch"`
	F        int     `json:"f"`
	R        int     `json:"r"`
	L        int     `json:"l"`
	Eff      float64 `json:"eff"`
	Analytic float64 `json:"analytic"`
	AbsErr   float64 `json:"abs_err"`
}

// ErrorBounds summarizes how far an adaptive job's analytic answer
// was from the simulator's ground truth. CalibratedMaxAbs is the
// offline-calibrated bound published by the fidelity-error experiment;
// MaxAbs/MeanAbs are this job's measured values. PerCell lists every
// refined cell's delta when the job is small enough to keep them all.
type ErrorBounds struct {
	Cells            int         `json:"cells"`
	MaxAbs           float64     `json:"max_abs"`
	MeanAbs          float64     `json:"mean_abs"`
	CalibratedMaxAbs float64     `json:"calibrated_max_abs"`
	PerCell          []CellDelta `json:"per_cell,omitempty"`
}

// Event is one entry in a job's event log. IDs are per-job, start at
// 1, and increase by 1 — the contract Last-Event-ID resumption relies
// on.
type Event struct {
	ID    int64  `json:"id"`
	Type  string `json:"type"`
	State State  `json:"state,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	Error string `json:"error,omitempty"`
	// Cached marks a state event for a job answered entirely from a
	// stored report.
	Cached bool `json:"cached,omitempty"`
	// Fidelity tags a partial event with the tier that produced the
	// partial ("analytic"); Total carries its cell count.
	Fidelity string `json:"fidelity,omitempty"`
	// Cells carries a refined-cell batch (cells events only).
	Cells []CellDelta `json:"cells,omitempty"`
	// Bounds carries the final error bounds (bounds events only).
	Bounds *ErrorBounds `json:"bounds,omitempty"`
}

// eventRec is an Event as a job's log stores it, a quarter of the
// Event's size, because up to MaxJobs finished jobs keep their logs:
// the ID is the record's position plus one, the type and state are
// small codes, and the fields only rare events carry sit behind a
// pointer.
type eventRec struct {
	typ, state  uint8
	cached      bool
	done, total int
	rare        *eventRare
}

// eventRare holds the Event fields of failed terminal states, partial,
// cells and bounds events.
type eventRare struct {
	err, fidelity string
	cells         []CellDelta
	bounds        *ErrorBounds
}

// The codes of eventRec.typ and eventRec.state index these tables.
var (
	eventTypes  = []string{EventProgress, EventState, EventPartial, EventCells, EventBounds}
	eventStates = []State{"", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}
)

// codeOf returns v's index in table; v must be listed.
func codeOf[T comparable](table []T, v T) uint8 {
	for i, x := range table {
		if x == v {
			return uint8(i)
		}
	}
	panic(fmt.Sprintf("serve: event value %v has no code", v))
}

func compactEvent(ev Event) eventRec {
	r := eventRec{
		typ:    codeOf(eventTypes, ev.Type),
		state:  codeOf(eventStates, ev.State),
		cached: ev.Cached,
		done:   ev.Done,
		total:  ev.Total,
	}
	if ev.Error != "" || ev.Fidelity != "" || ev.Cells != nil || ev.Bounds != nil {
		r.rare = &eventRare{err: ev.Error, fidelity: ev.Fidelity, cells: ev.Cells, bounds: ev.Bounds}
	}
	return r
}

// event expands the record at log position i.
func (r eventRec) event(i int) Event {
	ev := Event{
		ID:     int64(i) + 1,
		Type:   eventTypes[r.typ],
		State:  eventStates[r.state],
		Cached: r.cached,
		Done:   r.done,
		Total:  r.total,
	}
	if r.rare != nil {
		ev.Error, ev.Fidelity = r.rare.err, r.rare.fidelity
		ev.Cells, ev.Bounds = r.rare.cells, r.rare.bounds
	}
	return ev
}

// appendEventLocked stores the event under the next ID and wakes
// subscribers. Caller holds j.mu.
func (j *Job) appendEventLocked(ev Event) {
	j.events = append(j.events, compactEvent(ev))
	if j.eventWake != nil {
		close(j.eventWake)
	}
	j.eventWake = make(chan struct{})
}

// EventsSince returns a copy of the events with ID > after, plus a
// channel that is closed when the next event is appended (for waiting
// when the returned slice is empty).
func (j *Job) EventsSince(after int64) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := max(after, 0); i < int64(len(j.events)); i++ {
		out = append(out, j.events[i].event(int(i)))
	}
	if j.eventWake == nil {
		// Jobs born before the event layer existed in a test double, or
		// constructed directly: never wake, callers fall back to Done().
		j.eventWake = make(chan struct{})
	}
	return out, j.eventWake
}

// lastEventID parses the client's resume position: the standard
// Last-Event-ID header (set automatically by EventSource reconnects)
// or an explicit ?after=N query parameter.
func lastEventID(r *http.Request) int64 {
	raw := r.Header.Get("Last-Event-ID")
	if v := r.URL.Query().Get("after"); v != "" {
		raw = v
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id < 0 {
		return 0
	}
	return id
}

// handleJobEvents serves GET /v1/jobs/{id}/events.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	after := lastEventID(r)
	if pollWindow, ok := pollRequested(r); ok {
		s.serveLongPoll(w, r, j, after, pollWindow)
		return
	}
	s.serveSSE(w, r, j, after)
}

// pollRequested reports whether the client asked for the long-poll
// fallback and with what wait window.
func pollRequested(r *http.Request) (time.Duration, bool) {
	if v := r.URL.Query().Get("poll"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < time.Second {
			d = time.Second
		}
		if d > 60*time.Second {
			d = 60 * time.Second
		}
		return d, true
	}
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		return 30 * time.Second, true
	}
	return 0, false
}

// serveSSE streams the job's events until the terminal state event is
// sent or the client goes away.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, j *Job, after int64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // disable proxy buffering
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "retry: 1000\n\n")
	flusher.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		events, wake := j.EventsSince(after)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data)
			after = ev.ID
			if ev.Type == EventState && ev.State.terminal() {
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
		select {
		case <-wake:
		case <-heartbeat.C:
			// Comment line: keeps idle connections alive through proxies
			// without affecting event IDs.
			fmt.Fprintf(w, ": keepalive\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// serveLongPoll answers with the events after the client's position,
// waiting up to window for at least one. The response carries "next",
// the ID to pass back as ?after= on the next poll.
func (s *Server) serveLongPoll(w http.ResponseWriter, r *http.Request, j *Job, after int64, window time.Duration) {
	deadline := time.NewTimer(window)
	defer deadline.Stop()
	for {
		events, wake := j.EventsSince(after)
		if len(events) > 0 {
			next := events[len(events)-1].ID
			writeJSON(w, http.StatusOK, map[string]any{"events": events, "next": next})
			return
		}
		select {
		case <-wake:
		case <-deadline.C:
			writeJSON(w, http.StatusOK, map[string]any{"events": []Event{}, "next": after})
			return
		case <-r.Context().Done():
			return
		}
	}
}
