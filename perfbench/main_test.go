package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour: the
// workload names and every metric's name and unit.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBench runs the command in-process and decodes its last output line.
func runBench(t *testing.T, tamper func([]byte) []byte, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--out", t.TempDir())
	code := run(args, &stdout, &stderr, tamper)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result (exit %d): %v\nstdout:\n%s\nstderr:\n%s", code, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String() + stderr.String()
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each prints exactly the metrics BENCHMARK.json names, with their
// units, and that its outputs verified.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload for a few seconds")
	}
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(s.Workloads), len(workloads))
	}
	for _, wl := range s.Workloads {
		for _, tc := range []struct {
			trace string
			want  map[string]string
		}{
			{"0", units(s.EndToEnd)},
			{"1", units(s.PerLayer)},
		} {
			t.Run(wl.Name+"/trace="+tc.trace, func(t *testing.T) {
				code, res, out := runBench(t, nil, "--workload", wl.Name, "--seed", "7", "--seconds", "1", "--trace", tc.trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, %d of %d failed\n%s", code, res.Correct, res.Failed, res.Attempted, out)
				}
				for name, unit := range tc.want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s in %q, want %q", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := tc.want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

func units(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestOracleRejectsCorruptByte flips one byte of every delivered report
// on its way into the comparison: the run must report the mismatches as
// failures, print correct=false and exit non-zero.
func TestOracleRejectsCorruptByte(t *testing.T) {
	flip := func(b []byte) []byte {
		b[len(b)/2] ^= 1
		return b
	}
	code, res, out := runBench(t, flip, "--workload", "cold-sweep", "--seed", "3", "--seconds", "0.5", "--trace", "0")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("exit %d, correct %v, %d failed: a corrupted byte went unnoticed\n%s", code, res.Correct, res.Failed, out)
	}
	if !strings.Contains(out, "differs from the reference") {
		t.Errorf("output does not name the mismatch:\n%s", out)
	}
}

// TestSameSeedSameRequests pins the generator contract: a workload's
// request sequence is a pure function of its seed.
func TestSameSeedSameRequests(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a, b, c := workloads[n].gen(5), workloads[n].gen(5), workloads[n].gen(6)
		differs := false
		for i := 0; i < 200; i++ {
			x, y, z := identity(a.next().req), identity(b.next().req), identity(c.next().req)
			if x != y {
				t.Fatalf("%s: request %d differs between two generators with the same seed", n, i)
			}
			differs = differs || x != z
		}
		if !differs {
			t.Errorf("%s: seeds 5 and 6 generate the same 200 requests", n)
		}
	}
}

// TestNodeCountsRepeat checks that the node.* operation counts, summed
// from the delivered reports of a fixed request prefix, repeat exactly
// for a seed: a timing change can never move them.
func TestNodeCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("two traced runs")
	}
	var first map[string]metric
	for i := 0; i < 2; i++ {
		code, res, out := runBench(t, nil, "--workload", "warm-dashboard", "--seed", "9", "--seconds", "1", "--trace", "1")
		if code != 0 {
			t.Fatalf("exit %d\n%s", code, out)
		}
		if first == nil {
			first = res.Metrics
			continue
		}
		for name, m := range res.Metrics {
			timed := name == "node.mcycles_per_s" || name == "node.ns_per_fault"
			if strings.HasPrefix(name, "node.") && !timed && m != first[name] {
				t.Errorf("%s = %v, then %v", name, first[name].Value, m.Value)
			}
		}
	}
}
