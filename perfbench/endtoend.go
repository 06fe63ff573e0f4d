package main

import (
	"errors"
	"fmt"
	"io"
	"time"
)

// runEndToEnd sets the daemon up, drives the measured phase untraced,
// samples memory, then verifies the delivered bytes off the clock.
func runEndToEnd(w *workload, opt options, out io.Writer) (*result, error) {
	e, setup, err := setUp(w, opt.seed, setupRepeats)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	recs, wall := drive(w, e.c, opt.seed, seconds(opt.seconds))
	rss, rerr := peakRSSMB()
	if err := errors.Join(rerr, e.close()); err != nil {
		return nil, err
	}
	res, err := finish(w, opt, out, recs)
	if res == nil {
		return nil, err
	}
	res.Metrics = endToEndMetrics(w, out, recs, wall, setup, rss)
	return res, err
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// finish verifies the records and builds the result skeleton. The
// error is errMismatch when any delivered byte differed.
func finish(w *workload, opt options, out io.Writer, recs []*record) (*result, error) {
	checked, bad, err := verify(w, opt.seed, recs, opt.tamper)
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	res := &result{Correct: bad == 0 && checked > 0, Attempted: len(recs)}
	shown := 0
	for _, r := range recs {
		if !r.ok {
			res.Failed++
			if shown < 5 {
				fmt.Fprintf(out, "failed request %d (%s): %s\n", r.idx, r.it.kind, r.err)
				shown++
			}
		}
	}
	fmt.Fprintf(out, "verified %d reports against the cache-less reference, %d mismatched\n", checked, bad)
	switch {
	case bad > 0:
		return res, errMismatch
	case checked == 0:
		return res, errors.New("no report was delivered, so none could be verified")
	}
	return res, nil
}

// endToEndMetrics computes the metrics a user of the daemon sees.
func endToEndMetrics(w *workload, out io.Writer, recs []*record, wall, setup time.Duration, rssMB float64) map[string]metric {
	ttr := msValues(recs, (*record).ttr)
	first := msValues(recs, (*record).firstAnswer)
	var met int
	for _, r := range recs {
		if !r.ok {
			continue
		}
		lat := r.ttr()
		if w.limitOnFirst {
			lat = r.firstAnswer()
		}
		if lat <= w.limit {
			met++
		}
	}
	attempted := float64(len(recs))
	jobs, cells, ok := rates(recs, wall)
	fmt.Fprintf(out, "tail = p%g of %d successful requests (%d beyond it); latency limit %v on %s\n",
		100*w.tailQ, len(ttr), int(float64(len(ttr))*(1-w.tailQ)), w.limit, limitName(w))
	return map[string]metric{
		"setup_s":              {setup.Seconds(), "s"},
		"ttr_p50_ms":           {quantile(ttr, 0.5), "ms"},
		"ttr_tail_ms":          {quantile(ttr, w.tailQ), "ms"},
		"first_answer_p50_ms":  {quantile(first, 0.5), "ms"},
		"first_answer_tail_ms": {quantile(first, w.tailQ), "ms"},
		"points_per_s":         {cells, "1/s"},
		"jobs_per_s":           {jobs, "1/s"},
		"success_frac":         {float64(ok) / attempted, "frac"},
		"slo_met_frac":         {float64(met) / attempted, "frac"},
		"peak_rss_mb":          {rssMB, "MB"},
	}
}

func limitName(w *workload) string {
	if w.limitOnFirst {
		return "first answer"
	}
	return "time to result"
}

// rates returns the successful jobs and cells per wall second, and how
// many requests succeeded.
func rates(recs []*record, wall time.Duration) (jobs, cells float64, ok int) {
	var total int
	for _, r := range recs {
		if r.ok {
			ok++
			total += r.it.cells
		}
	}
	return float64(ok) / wall.Seconds(), float64(total) / wall.Seconds(), ok
}
