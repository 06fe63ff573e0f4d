package rng

import "math"

// Filtered inverse-transform sampling.
//
// Geometric and Exponential draw u = 1 - Float64() in (0, 1] and map it
// through ln u: the reference outputs are
//
//	geometric:   k = ceil(math.Log(u) / logQ), clamped to [1, 700·mean]
//	exponential: v = -mean · math.Log(u);  1 if v < 1, else int(v + 0.5)
//
// math.Log dominates a sample's cost, yet almost every u lands far
// from a point where the output changes. The fast path estimates ln u
// with a table lookup and two multiplies (lnEstimate), turns the
// estimate into an interval [lo, hi] that provably contains the
// reference's floating-point pre-image (q for geometric, v for
// exponential), and returns the output at once when the whole interval
// maps to one output. Otherwise it calls the reference on the same u.
//
// Why the result is exact:
//
//   - Both paths consume the same single Uint64, so the stream of
//     random bits, and hence every later sample, is unchanged.
//   - lnEstimate(u) = ℓ + ε with ℓ = ln u and |ε| <= h²/2 + 1e-12
//     (see lnEstimate). The reference computes q = fl(fl(ℓ)/logQ); the
//     fast path computes x = fl((ℓ+ε)·fl(1/logQ)). math.Log (Go
//     documents under 1 ulp), the division, the reciprocal and the
//     product each add a few units of 2^-53 relative error, and |ℓ| <=
//     745 for any normal u, so together they move q or x by under
//     1e-12·|1/logQ|. Hence |q - x| <= lnErr·|1/logQ| = d, the filter's
//     margin: lnErr = 4.8e-7 leaves 3e-9 over h²/2 = 4.7684e-7, a
//     thousandfold spare, which also absorbs the rounding of lo = x - d
//     and hi = x + d. The same argument gives d = lnErr·mean for
//     v = fl(-mean·fl(ℓ)).
//   - Both output maps are monotone non-decreasing in their pre-image
//     (ceil, int truncation of v+0.5, and the clamps all are). If they
//     agree at lo and at hi, they agree on every value in between, the
//     reference's pre-image included. Geometric checks this as "hi < 1"
//     (everything clamps to 1) or "no integer in [lo, hi]"; Exponential
//     as "int(hi+0.5) <= 1" or "int(lo+0.5) == int(hi+0.5)".
//   - Any input the argument does not cover (a NaN or infinite
//     constant, a pre-image beyond 2^52) fails the filter's comparisons
//     and takes the reference path.
//
// The undecided fraction is about 2·d, i.e. 2·lnErr·mean: about 3e-5
// at mean 32 and 0.5% at mean 5000. FuzzGeometricSample,
// FuzzExponentialSample and the table tests check the fast path against
// the reference directly.

// lnTableBits is the number of leading mantissa bits that index
// lnTable: the mantissa range [1, 2) is cut into 1024 slices of width
// h = 1/1024.
const lnTableBits = 10

// lnTable[i] holds ln c and 1/c for c = 1 + i/1024, the left end of
// mantissa slice i. It is shared by every distribution (16 KiB, built
// once), so sampling allocates nothing per distribution.
var lnTable [1 << lnTableBits]struct{ ln, inv float64 }

func init() {
	for i := range lnTable {
		c := 1 + float64(i)/(1<<lnTableBits)
		lnTable[i].ln = math.Log(c)
		lnTable[i].inv = 1 / c
	}
}

// lnErr bounds the error of lnEstimate(u) against ln u for normal u in
// (0, 1], with room to spare for the floating-point rounding of the
// reference and of the filter itself: the truncation error is at most
// h²/2 = 4.7684e-7, and all rounding together stays under 1e-12.
const lnErr = 4.8e-7

// lnEstimate returns ln u within lnErr for a normal u in (0, 1]. With
// u = 2^e·m, m in [1, 2), and c the left end of m's table slice,
// ln u = e·ln 2 + ln c + ln(1+t) where t = (m-c)/c in [0, h). It keeps
// the linear term t of ln(1+t), whose error lies in [0, t²/2], and
// computes t without dividing: m-c is exact (both share an exponent)
// and 1/c comes from the table.
func lnEstimate(u float64) float64 {
	const fracBits = 52
	const one = uint64(1023) << fracBits
	const fracMask = 1<<fracBits - 1
	const sliceMask = fracMask &^ (1<<(fracBits-lnTableBits) - 1)
	b := math.Float64bits(u)
	e := int(b>>fracBits) - 1023
	ent := &lnTable[b>>(fracBits-lnTableBits)&(1<<lnTableBits-1)]
	m := math.Float64frombits(b&fracMask | one)
	c := math.Float64frombits(b&sliceMask | one)
	return float64(e)*math.Ln2 + ent.ln + (m-c)*ent.inv
}

// geometricFast is the filtered geometric sample for u in (0, 1] with
// logQ = geometricLogQ(mean) and invLogQ = 1/logQ. ok is false when the
// estimate cannot decide the output.
func geometricFast(u, mean, invLogQ float64) (k int, ok bool) {
	x := lnEstimate(u) * invLogQ
	d := lnErr * math.Abs(invLogQ)
	lo, hi := x-d, x+d
	if hi < 1 {
		return 1, true // ceil(q) <= 1, clamped up to 1
	}
	if hi < 1<<52 {
		if f := int64(hi); float64(f) < lo {
			// Every pre-image lies in (f, f+1): ceil is f+1.
			if kf := float64(f + 1); kf > 700*mean {
				return int(700 * mean), true
			}
			return int(f + 1), true
		}
	}
	return 0, false
}

// geometricRef is the reference geometric inverse transform for u in
// (0, 1]: ceil(ln u / ln(1-p)) with p = 1/mean.
func geometricRef(u, mean, logQ float64) int {
	k := math.Ceil(math.Log(u) / logQ)
	if k < 1 {
		k = 1
	}
	// Clamp to a sane bound to protect cycle accounting from float
	// pathologies; P(k > 700*mean) < 1e-300.
	if max := 700 * mean; k > max {
		k = max
	}
	return int(k)
}

// exponentialFast is the filtered, rounded exponential sample for u in
// (0, 1]. ok is false when the estimate cannot decide the output.
func exponentialFast(u, mean float64) (n int, ok bool) {
	v := -mean * lnEstimate(u)
	d := lnErr * mean
	lo, hi := v-d, v+d
	if hi < 1<<52 {
		top := int64(hi + 0.5)
		if top <= 1 {
			return 1, true
		}
		if int64(lo+0.5) == top {
			return int(top), true
		}
	}
	return 0, false
}

// exponentialRef is the reference rounded exponential sample for u in
// (0, 1]: -mean·ln u, at least 1, rounded to the nearest integer.
func exponentialRef(u, mean float64) int {
	// The conversion rounds the product before v+0.5, so no fused
	// multiply-add can change an output.
	v := float64(-mean * math.Log(u))
	if v < 1 {
		return 1
	}
	return int(v + 0.5)
}
