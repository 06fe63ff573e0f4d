package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"regreloc/internal/serve"
)

// saltArrivals seeds the open-loop arrival schedule, independently of
// the request contents.
const saltArrivals = saltVerify + 1

// env is one booted daemon: the serve.Server, its loopback HTTP
// listener, and a client bound to it.
type env struct {
	srv    *serve.Server
	hs     *http.Server
	c      *client
	served chan error
}

// boot starts a daemon for the workload and runs its warm-up.
func boot(w *workload, seed uint64) (*env, error) {
	srv, err := serve.New(w.config())
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // the listen error is the one to report
		return nil, err
	}
	e := &env{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		c:      newClient("http://" + ln.Addr().String()),
		served: make(chan error, 1),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	if status, _, err := e.c.call(http.MethodGet, "/readyz", nil); err != nil || status != http.StatusOK {
		e.close()
		return nil, fmt.Errorf("daemon not ready: status %d: %v", status, err)
	}
	if err := w.warm(e.c, seed); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the HTTP server and the daemon and waits for both.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := e.hs.Shutdown(ctx)
	if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	e.c.hc.CloseIdleConnections()
	return errors.Join(herr, e.srv.Shutdown(ctx))
}

// setupRepeats is how many times an end-to-end run boots and warms a
// daemon; setup_s is the median, and the last daemon serves the run.
const setupRepeats = 5

// setUp boots the workload's daemon n times and returns the last one
// with the median set-up time.
func setUp(w *workload, seed uint64, n int) (*env, time.Duration, error) {
	times := make([]float64, 0, n)
	var e *env
	for i := 0; i < n; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = boot(w, seed); err != nil {
			return nil, 0, err
		}
		times = append(times, float64(time.Since(t0)))
	}
	runtime.GC()
	return e, time.Duration(quantile(times, 0.5)), nil
}

// drive runs the workload's measured phase against c for d and returns
// every request attempted, in index order, with the phase's wall time
// (start to the last result).
//
// Closed loop: each of the `clients` clients sends its next request as
// soon as the previous one has its result, until d has passed. Open
// loop: requests are due on a fixed schedule over d (see arrivals), and
// each starts at its due time whatever is still outstanding; all of
// them share the client's `clients` connections, so a request that
// finds both busy waits for one, and that wait counts in its latency.
func drive(w *workload, c *client, seed uint64, d time.Duration) ([]*record, time.Duration) {
	gen := w.gen(seed)
	var (
		mu   sync.Mutex
		recs []*record
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)

	if w.closed {
		next := func() *record {
			mu.Lock()
			defer mu.Unlock()
			now := time.Now()
			if !now.Before(deadline) {
				return nil
			}
			r := &record{idx: len(recs), it: gen.next(), due: now}
			recs = append(recs, r)
			return r
		}
		for k := 0; k < clients; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := next(); r != nil; r = next() {
					c.exchange(r)
				}
			}()
		}
	} else {
		for _, at := range arrivals(seed, w.rate, d) {
			recs = append(recs, &record{idx: len(recs), it: gen.next(), due: start.Add(at)})
		}
		for _, r := range recs {
			time.Sleep(time.Until(r.due))
			wg.Add(1)
			go func(r *record) {
				defer wg.Done()
				c.exchange(r)
			}(r)
		}
	}
	wg.Wait()
	last := start
	for _, r := range recs {
		if r.end.After(last) {
			last = r.end
		}
	}
	return recs, last.Sub(start)
}

// arrivals returns the open-loop due times, as offsets from the start
// of the phase: one request every 1/rate from a seeded phase. A fixed
// rate with no bursts makes every request's latency its own service
// time plus whatever the traffic before it left running, not an
// artefact of how the seed clustered the arrivals.
func arrivals(seed uint64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, saltArrivals))
	slot := time.Duration(float64(time.Second) / rate)
	phase := time.Duration(rng.Int64N(int64(slot)))
	out := make([]time.Duration, int(rate*d.Seconds()+0.5))
	for i := range out {
		out[i] = phase + time.Duration(i)*slot
	}
	return out
}
