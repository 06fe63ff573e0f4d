package rng

import (
	"fmt"
	"math"
	"testing"

	"regreloc/internal/testutil"
)

// The filtered samplers must return exactly what the math.Log
// reference returns for the same u. These tests and the fuzzers check
// that directly, both away from output boundaries and one ULP either
// side of them.

var (
	geometricTestMeans   = []float64{1.5, 2, 3.5, 8, 32, 128, 512, 4000}
	exponentialTestMeans = []float64{0.3, 1, 2.5, 16, 128, 1024, 5000}
)

// samplesPerMean is the number of random u values checked per mean.
const samplesPerMean = 5_000_000

// uniformU maps 64 random bits to u in (0, 1] exactly as the samplers
// do (1 - Float64()).
func uniformU(bits uint64) float64 { return 1 - float64(bits>>11)/(1<<53) }

// fuzzU reads bits as a float64 when that is a normal value in (0, 1],
// so the fuzzer can reach any such u, and otherwise maps them the way
// the samplers do.
func fuzzU(bits uint64) float64 {
	if u := math.Float64frombits(bits); u >= 0x1p-1022 && u <= 1 {
		return u
	}
	return uniformU(bits)
}

// checkGeometric fails t if the fast path decides u differently from
// the reference, and reports whether it decided.
func checkGeometric(t testing.TB, g Geometric, u float64) bool {
	want := geometricRef(u, g.MeanValue, g.logQ)
	got, ok := geometricFast(u, g.MeanValue, g.invLogQ)
	if ok && got != want {
		t.Fatalf("geometric mean %v u %v (%#x): fast %d, reference %d",
			g.MeanValue, u, math.Float64bits(u), got, want)
	}
	return ok
}

// checkExponential is checkGeometric for the rounded exponential.
func checkExponential(t testing.TB, mean, u float64) bool {
	want := exponentialRef(u, mean)
	got, ok := exponentialFast(u, mean)
	if ok && got != want {
		t.Fatalf("exponential mean %v u %v (%#x): fast %d, reference %d",
			mean, u, math.Float64bits(u), got, want)
	}
	return ok
}

// undecidedBound is a loose cap on the fraction of samples that fall
// back to math.Log, about 2·lnErr·scale plus sampling noise: a filter
// that silently stopped deciding would still be exact, only slow.
func undecidedBound(scale float64) float64 { return 4*lnErr*scale + 1e-4 }

func TestGeometricFastMatchesReference(t *testing.T) {
	for _, mean := range geometricTestMeans {
		t.Run(fmt.Sprint(mean), func(t *testing.T) {
			t.Parallel()
			g := NewGeometric(mean)
			src := New(uint64(mean * 1000))
			undecided := 0
			for i := 0; i < samplesPerMean; i++ {
				if !checkGeometric(t, g, uniformU(src.Uint64())) {
					undecided++
				}
			}
			frac := float64(undecided) / samplesPerMean
			t.Logf("mean %v: %.2e of samples fell back to math.Log", mean, frac)
			if bound := undecidedBound(math.Abs(g.invLogQ)); frac > bound {
				t.Errorf("mean %v: %.2e of samples fell back to math.Log, want <= %.2e", mean, frac, bound)
			}
		})
	}
}

func TestExponentialFastMatchesReference(t *testing.T) {
	for _, mean := range exponentialTestMeans {
		t.Run(fmt.Sprint(mean), func(t *testing.T) {
			t.Parallel()
			src := New(uint64(mean * 1000))
			undecided := 0
			for i := 0; i < samplesPerMean; i++ {
				if !checkExponential(t, mean, uniformU(src.Uint64())) {
					undecided++
				}
			}
			frac := float64(undecided) / samplesPerMean
			t.Logf("mean %v: %.2e of samples fell back to math.Log", mean, frac)
			if bound := undecidedBound(mean); frac > bound {
				t.Errorf("mean %v: %.2e of samples fell back to math.Log, want <= %.2e", mean, frac, bound)
			}
		})
	}
}

// ulpNeighbours returns u and the three representable values either
// side of it, clipped to (0, 1].
func ulpNeighbours(u float64) []float64 {
	out := []float64{u}
	for lo, hi, i := u, u, 0; i < 3; i++ {
		lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 2)
		out = append(out, lo)
		if hi <= 1 {
			out = append(out, hi)
		}
	}
	return out
}

// TestSamplersAtOutputBoundaries probes the u values where the output
// steps, the inputs the filter exists to hand back to math.Log: for
// geometric, ln u = k·ln(1-p) (q crosses the integer k); for
// exponential, -mean·ln u = n+0.5 (rounding flips) and = 1 (the
// at-least-1 clamp).
func TestSamplersAtOutputBoundaries(t *testing.T) {
	steps := 0
	for _, mean := range geometricTestMeans {
		g := NewGeometric(mean)
		for k := 1.0; k < 40*mean; k = math.Ceil(k * 1.07) {
			us := ulpNeighbours(math.Exp(k * g.logQ))
			first := geometricRef(us[0], mean, g.logQ)
			for _, u := range us {
				checkGeometric(t, g, u)
				if geometricRef(u, mean, g.logQ) != first {
					steps++
				}
			}
		}
	}
	for _, mean := range exponentialTestMeans {
		for n := 1.0; n < 40*mean; n = math.Ceil(n * 1.07) {
			for _, v := range []float64{n + 0.5, 1} {
				us := ulpNeighbours(math.Exp(-v / mean))
				first := exponentialRef(us[0], mean)
				for _, u := range us {
					checkExponential(t, mean, u)
					if exponentialRef(u, mean) != first {
						steps++
					}
				}
			}
		}
	}
	// The probes must actually straddle boundaries, or they test
	// nothing the random samples do not.
	t.Logf("%d probes changed the reference output", steps)
	if steps < 100 {
		t.Errorf("only %d probes changed the reference output; boundary search is off", steps)
	}
}

// TestSamplingAllocatesNothing pins that the shared table replaced any
// per-distribution state: building and sampling a distribution does not
// touch the heap.
func TestSamplingAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("AllocsPerRun is not meaningful under -race")
	}
	src := New(1)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		sink += NewGeometric(32).Sample(src) + Exponential{MeanValue: 512}.Sample(src)
	})
	if allocs != 0 {
		t.Errorf("sampling allocated %.1f times per call; want 0", allocs)
	}
}

func FuzzGeometricSample(f *testing.F) {
	f.Add(uint64(0), 32.0)
	f.Add(math.Float64bits(math.Exp(3*math.Log(1-1.0/8))), 8.0)
	f.Add(uint64(1<<63-1), 4000.0)
	f.Fuzz(func(t *testing.T, bits uint64, mean float64) {
		if !(mean >= 1) {
			t.Skip("Geometric panics on a mean below 1")
		}
		checkGeometric(t, NewGeometric(mean), fuzzU(bits))
	})
}

func FuzzExponentialSample(f *testing.F) {
	f.Add(uint64(0), 512.0)
	f.Add(math.Float64bits(math.Exp(-2.5/16)), 16.0)
	f.Add(uint64(1<<63-1), 0.3)
	f.Fuzz(func(t *testing.T, bits uint64, mean float64) {
		if !(mean > 0) {
			t.Skip("Exponential panics on a mean that is not positive")
		}
		checkExponential(t, mean, fuzzU(bits))
	})
}
