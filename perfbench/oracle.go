package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"regreloc/internal/serve"
)

// oracle computes reference reports off the clock on a cache-less
// serve.Server: no report cache and no point store, so every reference
// is simulated from scratch and cannot inherit a caching bug from the
// daemon under test.
type oracle struct {
	srv  *serve.Server
	mu   sync.Mutex
	refs map[string][]byte // request identity → canonical report bytes
}

func newOracle() (*oracle, error) {
	srv, err := serve.New(serve.Config{
		QueueCap:        4 * clients,
		Workers:         clients,
		PointWorkers:    1,
		CacheBytes:      -1,
		PointCacheBytes: -1,
		JobTimeout:      time.Minute,
		Logger:          log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, err
	}
	srv.Start()
	return &oracle{srv: srv, refs: map[string][]byte{}}, nil
}

func (o *oracle) close() error { return o.srv.Shutdown(context.Background()) }

func identity(req serve.Request) string {
	b, _ := json.Marshal(req) // a Request always encodes
	return string(b)
}

// compute fills in the reference for every distinct request, running
// `clients` jobs at a time.
func (o *oracle) compute(reqs []serve.Request) error {
	var todo []serve.Request
	seen := map[string]bool{}
	for _, q := range reqs {
		id := identity(q)
		if _, done := o.refs[id]; !done && !seen[id] {
			seen[id] = true
			todo = append(todo, q)
		}
	}
	next := make(chan serve.Request)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var first error
			for q := range next {
				if first != nil {
					continue // drain so the sender never blocks
				}
				data, err := o.run(q)
				if err != nil {
					first = err
					continue
				}
				o.mu.Lock()
				o.refs[identity(q)] = data
				o.mu.Unlock()
			}
			errs <- first
		}()
	}
	for _, q := range todo {
		next <- q
	}
	close(next)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (o *oracle) run(q serve.Request) ([]byte, error) {
	j, _, err := o.srv.Submit(q)
	if err != nil {
		return nil, fmt.Errorf("reference %s seed %d: %w", q.Experiment, q.Seed, err)
	}
	<-j.Done()
	if st := j.StateNow(); st != serve.StateDone {
		return nil, fmt.Errorf("reference %s seed %d ended %s", q.Experiment, q.Seed, st)
	}
	return j.Result(), nil
}

// analytic is the request whose result an adaptive job's partial must
// equal: the same grid at the analytic tier.
func analytic(q serve.Request) serve.Request {
	q.Fidelity = "analytic"
	return q
}

// verify byte-compares the selected records' results (and adaptive
// partials) with reference reports. A mismatching record is marked
// failed. It returns how many records were checked and how many
// mismatched. tamper, when non-nil, alters a copy of each delivered
// report before comparison.
func verify(w *workload, seed uint64, recs []*record, tamper func([]byte) []byte) (checked, bad int, err error) {
	var delivered []*record
	for _, r := range recs {
		if r.ok {
			delivered = append(delivered, r)
		}
	}
	// A sample takes every n-th delivered report from a seeded offset,
	// so even a short run checks at least one.
	n := min(w.verifyEvery, len(delivered))
	var pick []*record
	var reqs []serve.Request
	for i, r := range delivered {
		if (i+int(mix(seed, saltVerify)%uint64(n)))%n != 0 {
			continue
		}
		pick = append(pick, r)
		reqs = append(reqs, r.it.req)
		if r.partial != nil {
			reqs = append(reqs, analytic(r.it.req))
		}
	}
	if len(pick) == 0 {
		return 0, 0, nil
	}
	o, err := newOracle()
	if err != nil {
		return 0, 0, err
	}
	if err := o.compute(reqs); err != nil {
		o.close()
		return 0, 0, err
	}
	if err := o.close(); err != nil {
		return 0, 0, err
	}
	for _, r := range pick {
		checked++
		got := r.result
		if tamper != nil {
			got = tamper(append([]byte(nil), got...))
		}
		msg := ""
		if !bytes.Equal(got, o.refs[identity(r.it.req)]) {
			msg = "report differs from the reference"
		} else if r.partial != nil && !bytes.Equal(r.partial, o.refs[identity(analytic(r.it.req))]) {
			msg = "analytic partial differs from the analytic-tier reference"
		}
		if msg != "" {
			bad++
			r.ok = false
			r.err = fmt.Sprintf("%s (%s seed %d)", msg, r.it.req.Experiment, r.it.req.Seed)
		}
	}
	return checked, bad, nil
}
