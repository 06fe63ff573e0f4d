package rng

import "fmt"

// Dist is a distribution of non-negative integer cycle counts or
// register counts, sampled with an explicit Source. The experiment
// harness composes workloads from these (paper Section 3.1: geometric
// run lengths, constant cache latencies, exponential synchronization
// latencies, uniform context sizes).
type Dist interface {
	// Sample draws one value using src.
	Sample(src *Source) int
	// Mean returns the distribution's expected value.
	Mean() float64
	// String describes the distribution, e.g. "geometric(32)".
	String() string
}

// Constant is a degenerate distribution that always returns Value.
type Constant struct{ Value int }

// Sample implements Dist.
func (c Constant) Sample(*Source) int { return c.Value }

// Mean implements Dist.
func (c Constant) Mean() float64 { return float64(c.Value) }

func (c Constant) String() string { return fmt.Sprintf("constant(%d)", c.Value) }

// Geometric is a geometric distribution with the given mean and support
// {1, 2, ...}. It models a fixed per-cycle fault probability. Build it
// with NewGeometric on sampling hot paths: a Geometric{MeanValue: m}
// literal also works, but recomputes the log constant on every sample.
type Geometric struct {
	MeanValue float64
	// logQ caches log(1-1/MeanValue), zero meaning not computed, and
	// invLogQ its reciprocal.
	logQ, invLogQ float64
}

// NewGeometric returns a geometric distribution with the given mean
// and its sampling constants precomputed.
func NewGeometric(mean float64) Geometric {
	logQ := geometricLogQ(mean)
	return Geometric{MeanValue: mean, logQ: logQ, invLogQ: 1 / logQ}
}

// Sample implements Dist: ceil(ln u / ln(1-1/mean)) for one uniform u,
// by filtered inverse-transform sampling (see sample.go). It panics if
// the mean is below 1.
func (g Geometric) Sample(src *Source) int {
	if g.logQ == 0 {
		g = NewGeometric(g.MeanValue)
	}
	if g.MeanValue < 1 {
		panic("rng: Geometric called with mean < 1")
	}
	if g.MeanValue == 1 {
		return 1
	}
	u := 1 - src.Float64() // in (0, 1]
	if k, ok := geometricFast(u, g.MeanValue, g.invLogQ); ok {
		return k
	}
	return geometricRef(u, g.MeanValue, g.logQ)
}

// Mean implements Dist.
func (g Geometric) Mean() float64 { return g.MeanValue }

func (g Geometric) String() string { return fmt.Sprintf("geometric(%g)", g.MeanValue) }

// Exponential is an exponential distribution with the given mean,
// rounded up to at least 1 cycle. It models producer-consumer
// synchronization wait times (paper Section 3.3).
type Exponential struct{ MeanValue float64 }

// Sample implements Dist: -mean·ln u for one uniform u, at least 1,
// rounded to the nearest integer, by filtered inverse-transform
// sampling (see sample.go). It panics if the mean is not positive.
func (e Exponential) Sample(src *Source) int {
	if e.MeanValue <= 0 {
		panic("rng: Exponential called with mean <= 0")
	}
	u := 1 - src.Float64() // in (0, 1]
	if n, ok := exponentialFast(u, e.MeanValue); ok {
		return n
	}
	return exponentialRef(u, e.MeanValue)
}

// Mean implements Dist.
func (e Exponential) Mean() float64 { return e.MeanValue }

func (e Exponential) String() string { return fmt.Sprintf("exponential(%g)", e.MeanValue) }

// Weighted is a discrete distribution over explicit values with
// relative weights — used for bimodal context-size populations such as
// the paper's motivating "mix of both coarse and fine-grained threads"
// (Section 2).
type Weighted struct {
	Values  []int
	Weights []float64
}

// NewWeighted validates and returns a weighted distribution.
func NewWeighted(values []int, weights []float64) Weighted {
	if len(values) == 0 || len(values) != len(weights) {
		panic("rng: weighted distribution needs matching non-empty values and weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: weights sum to zero")
	}
	return Weighted{Values: values, Weights: weights}
}

// Sample implements Dist.
func (w Weighted) Sample(src *Source) int {
	total := 0.0
	for _, wt := range w.Weights {
		total += wt
	}
	x := src.Float64() * total
	for i, wt := range w.Weights {
		x -= wt
		if x < 0 {
			return w.Values[i]
		}
	}
	return w.Values[len(w.Values)-1]
}

// Mean implements Dist.
func (w Weighted) Mean() float64 {
	total, sum := 0.0, 0.0
	for i, wt := range w.Weights {
		total += wt
		sum += wt * float64(w.Values[i])
	}
	return sum / total
}

func (w Weighted) String() string {
	return fmt.Sprintf("weighted(%v)", w.Values)
}

// UniformInt is a discrete uniform distribution on [Lo, Hi] inclusive.
// The paper draws required context sizes C uniformly from [6, 24].
type UniformInt struct{ Lo, Hi int }

// Sample implements Dist.
func (u UniformInt) Sample(src *Source) int { return src.IntRange(u.Lo, u.Hi) }

// Mean implements Dist.
func (u UniformInt) Mean() float64 { return float64(u.Lo+u.Hi) / 2 }

func (u UniformInt) String() string { return fmt.Sprintf("uniform(%d,%d)", u.Lo, u.Hi) }
