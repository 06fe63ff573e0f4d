package node

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"regreloc/internal/alloc"
	"regreloc/internal/policy"
	"regreloc/internal/stats"
	"regreloc/internal/trace"
	"regreloc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/result_digests.golden from the current simulator")

const digestGolden = "testdata/result_digests.golden"

// resultEncoding renders every field of a Result canonically: both
// cycle accounts activity by activity, the float fields as their IEEE
// bits, and every operation count. Two runs encode identically iff
// their Results are bit-identical.
func resultEncoding(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s", r.Name)
	for _, acct := range []struct {
		tag string
		a   *stats.CycleAccount
	}{{"full", r.Full}, {"windowed", r.Windowed}} {
		for _, a := range stats.Activities() {
			fmt.Fprintf(&b, " %s.%v=%d", acct.tag, a, acct.a.Get(a))
		}
	}
	fmt.Fprintf(&b, " eff=%016x completed=%d avg_resident=%016x max_resident=%d avg_wasted=%016x",
		math.Float64bits(r.Efficiency), r.Completed, math.Float64bits(r.AvgResident),
		r.MaxResident, math.Float64bits(r.AvgWastedRegs))
	fmt.Fprintf(&b, " allocs=%d alloc_fails=%d deallocs=%d loads=%d unloads=%d faults=%d probes=%d",
		r.Allocs, r.AllocFails, r.Deallocs, r.Loads, r.Unloads, r.Faults, r.Probes)
	return b.String()
}

func resultDigest(r Result) string {
	sum := sha256.Sum256([]byte(resultEncoding(r)))
	return hex.EncodeToString(sum[:16])
}

// goldenCase is one cell of the byte-identity matrix.
type goldenCase struct {
	name string
	cfg  Config
	spec workload.Spec
}

// goldenMatrix is {Never, TwoPhase, Always} x {Fixed, Bitmap, Lookup,
// Buddy, FirstFit} x {cache, sync, combined faults} x DribbleUnload
// on/off on a 64-register file, where contexts are scarce enough that
// every policy probes, unloads and fails allocations.
func goldenMatrix() []goldenCase {
	const f = 64
	pols := []policy.Unload{policy.Never{}, policy.TwoPhase{}, policy.Always{}}
	allocs := []struct {
		name string
		mk   func() alloc.Allocator
	}{
		{"fixed", func() alloc.Allocator { return alloc.NewFixed(f, 32) }},
		{"bitmap", func() alloc.Allocator { return alloc.NewBitmap(f, 32, alloc.FlexibleCosts) }},
		{"lookup", func() alloc.Allocator { return alloc.NewLookup(f, alloc.LookupCosts) }},
		{"buddy", func() alloc.Allocator { return alloc.NewBuddy(f, alloc.ChunkRegisters, 32, alloc.FlexibleCosts) }},
		{"firstfit", func() alloc.Allocator { return alloc.NewFirstFit(f, 32, alloc.ExactCosts) }},
	}
	specs := []workload.Spec{
		workload.CacheFaults(16, 256, workload.PaperCtxSize(), 16, 4000),
		workload.SyncFaults(32, 512, workload.PaperCtxSize(), 16, 4000),
		workload.Combined(32, 64, 64, 384, workload.PaperCtxSize(), 16, 4000),
	}
	var cases []goldenCase
	for _, pol := range pols {
		for _, a := range allocs {
			for _, spec := range specs {
				for _, dribble := range []bool{false, true} {
					cases = append(cases, goldenCase{
						name: fmt.Sprintf("%s/%s/%s/dribble=%t", pol.Name(), a.name, strings.Fields(spec.Name)[0], dribble),
						cfg: Config{
							Name: a.name, NewAlloc: a.mk, Policy: pol,
							SwitchCost: 8, QueueOpCost: 10, DribbleUnload: dribble,
						},
						spec: spec,
					})
				}
			}
		}
	}
	return cases
}

// TestResultDigestGolden pins a SHA-256 digest of every Result field
// across the policy x allocator x workload x dribble matrix, generated
// from the simulator before its hot-path optimizations. Any change to
// a cycle count, a float bit or an operation count fails it: simulator
// speedups must be byte-identical. Regenerate with -update only for an
// intentional model change, and say why in the commit message.
func TestResultDigestGolden(t *testing.T) {
	got := map[string]string{}
	var names []string
	var probed, unloaded, failed int
	for _, c := range goldenMatrix() {
		r := Run(c.cfg, c.spec, 7)
		got[c.name] = resultDigest(r)
		names = append(names, c.name)
		probed += min(int(r.Probes), 1)
		unloaded += min(int(r.Unloads), 1)
		failed += min(int(r.AllocFails), 1)
	}
	sort.Strings(names)
	// The matrix must exercise the paths it guards.
	if probed < len(names)/2 || unloaded == 0 || failed < len(names)/2 {
		t.Errorf("matrix too easy: %d cases probe, %d unload, %d fail an allocation of %d",
			probed, unloaded, failed, len(names))
	}
	if *updateGolden {
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.WriteFile(digestGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, matrix has %d", len(want), len(got))
	}
	for _, n := range names {
		if want[n] != got[n] {
			t.Errorf("%s: digest %s, golden %s", n, got[n], want[n])
		}
	}
}

// TestTracedRunMatchesUntraced cross-checks the untraced fast path
// against the traced one, which charges every probe individually: for
// every policy, on figure5- and figure6-shaped specs on both
// architectures and across the whole digest matrix, the Results must
// be identical.
func TestTracedRunMatchesUntraced(t *testing.T) {
	cases := goldenMatrix()
	for _, pol := range []policy.Unload{policy.Never{}, policy.TwoPhase{}, policy.Always{}} {
		for _, mk := range []func(int, policy.Unload, int64) Config{FixedConfig, FlexibleConfig} {
			cases = append(cases,
				goldenCase{"figure5-shaped", mk(64, pol, 6), workload.CacheFaults(8, 128, workload.PaperCtxSize(), 32, 2000)},
				goldenCase{"figure6-shaped", mk(64, pol, 8), workload.SyncFaults(32, 512, workload.PaperCtxSize(), 32, 3200)})
		}
	}
	for _, c := range cases {
		plain := Run(c.cfg, c.spec, 3)
		c.cfg.Tracer = trace.New(0)
		traced := Run(c.cfg, c.spec, 3)
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s/%s/%s: traced run differs from untraced\n untraced: %s\n   traced: %s",
				c.name, c.cfg.Policy.Name(), c.cfg.Name, resultEncoding(plain), resultEncoding(traced))
		}
	}
}
