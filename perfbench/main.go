// Command perfbench is the repository benchmark: it boots an in-process
// serve.Server behind a loopback HTTP listener, drives one seeded
// workload over HTTP with at most two client connections, byte-checks
// the delivered reports against a cache-less reference server off the
// clock, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run repeats the workload with client-side spans, scrapes /metrics and
// the point-store counters, replays the requests through the layers'
// public functions, and reports the per-layer metrics instead.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload cold-sweep --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	// tamper, when non-nil, is applied to a copy of every delivered
	// report before it is compared with the reference. Tests use it to
	// show that the oracle rejects a corrupted byte.
	tamper func([]byte) []byte
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errMismatch marks a run whose delivered bytes differ from the
// reference: the result is still printed, but the command fails.
var errMismatch = errors.New("delivered report bytes differ from the reference")

// run runs the command; tamper is options.tamper.
func run(args []string, stdout, stderr io.Writer, tamper func([]byte) []byte) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	fs.Float64Var(&opt.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&opt.outDir, "out", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[opt.workload]
	if !ok || opt.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	opt.trace = trace == 1
	opt.tamper = tamper

	var res *result
	var err error
	if opt.trace {
		res, err = runTraced(w, opt, stdout)
	} else {
		res, err = runEndToEnd(w, opt, stdout)
	}
	if res == nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printMetrics(stdout, res)
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// printMetrics writes one human-readable line per metric, sorted by
// name, ahead of the JSON line.
func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
