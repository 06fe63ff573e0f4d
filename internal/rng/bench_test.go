package rng

import "testing"

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	if sink == 1 {
		b.Fatal("impossible")
	}
}

func BenchmarkGeometric(b *testing.B) {
	r := New(1)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += r.Geometric(32)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

func BenchmarkExponential(b *testing.B) {
	r := New(1)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += r.Exponential(512)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

func BenchmarkGeometricDist(b *testing.B) {
	r := New(1)
	g := NewGeometric(32)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += g.Sample(r)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

func BenchmarkExponentialDist(b *testing.B) {
	r := New(1)
	e := Exponential{MeanValue: 512}
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += e.Sample(r)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}
