package experiment

import (
	"testing"

	"regreloc/internal/rng"
)

// The point key is the entire soundness argument of the point store:
// two keys are equal exactly when the measurements they address are
// byte-identical. These tests pin both directions — keys must not
// depend on how a grid was declared or swept (or overlapping requests
// would never share entries), and they must differ across everything
// that changes result bytes (or the store would serve wrong data).

func TestPointKeyIgnoresGridShape(t *testing.T) {
	scale := Quick
	// The same (f, r, l, arch) cell reached through differently ordered
	// and differently sized grids must produce one key. The figure5
	// planner enumerates whole grids; collect each cell's key per grid
	// and compare the shared cell.
	keysOf := func(g Grids) map[string]bool {
		ks := figure5.keys(1, scale, g)
		set := make(map[string]bool, len(ks))
		for _, k := range ks {
			set[k] = true
		}
		return set
	}
	a := keysOf(Grids{F: []int{64, 128}, R: []int{8, 32}, L: []int{16, 32}})
	b := keysOf(Grids{F: []int{128, 64}, R: []int{32, 8}, L: []int{32, 16}}) // same cells, reversed axes
	c := keysOf(Grids{F: []int{64}, R: []int{8}, L: []int{16}})              // sub-grid
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("grid key counts = %d, %d, want 16 each", len(a), len(b))
	}
	for k := range b {
		if !a[k] {
			t.Fatal("axis-reordered grid produced a key the original grid lacks")
		}
	}
	for k := range c {
		if !a[k] {
			t.Fatal("sub-grid cell keyed differently than the same cell in the full grid")
		}
	}
}

func TestPointKeyDistinctness(t *testing.T) {
	base := func() string {
		return pointKeyWith("engine-a", FidelitySim, "figure5", 1, 32, 2000, 64, 8, 16, "fixed")
	}
	variants := map[string]string{
		"engine":     pointKeyWith("engine-b", FidelitySim, "figure5", 1, 32, 2000, 64, 8, 16, "fixed"),
		"experiment": pointKeyWith("engine-a", FidelitySim, "figure6", 1, 32, 2000, 64, 8, 16, "fixed"),
		"seed":       pointKeyWith("engine-a", FidelitySim, "figure5", 2, 32, 2000, 64, 8, 16, "fixed"),
		"threads":    pointKeyWith("engine-a", FidelitySim, "figure5", 1, 64, 2000, 64, 8, 16, "fixed"),
		"work":       pointKeyWith("engine-a", FidelitySim, "figure5", 1, 32, 2001, 64, 8, 16, "fixed"),
		"f":          pointKeyWith("engine-a", FidelitySim, "figure5", 1, 32, 2000, 128, 8, 16, "fixed"),
		"r":          pointKeyWith("engine-a", FidelitySim, "figure5", 1, 32, 2000, 64, 32, 16, "fixed"),
		"l":          pointKeyWith("engine-a", FidelitySim, "figure5", 1, 32, 2000, 64, 8, 32, "fixed"),
		"arch":       pointKeyWith("engine-a", FidelitySim, "figure5", 1, 32, 2000, 64, 8, 16, "flexible"),
		"fidelity":   pointKeyWith("engine-a", FidelityAnalytic, "figure5", 1, 32, 2000, 64, 8, 16, "fixed"),
	}
	seen := map[string]string{base(): "base"}
	for what, k := range variants {
		if k == base() {
			t.Errorf("changing %s did not change the key", what)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s collided", what, prev)
		}
		seen[k] = what
	}
	if base() != base() {
		t.Error("key not deterministic")
	}
}

// TestPointKeyNeighbourSeedsDiffer is the collision sanity check tying
// keys to the RNG layer: neighbouring coordinates derive distinct seeds
// (rng.DeriveSeed) AND distinct keys, so adjacent grid cells can never
// share either a stream or a cache entry.
func TestPointKeyNeighbourSeedsDiffer(t *testing.T) {
	type cell struct{ f, r, l, ai int }
	cells := []cell{{64, 8, 16, 0}, {64, 8, 16, 1}, {64, 8, 32, 0}, {64, 32, 16, 0}, {128, 8, 16, 0}}
	archs := []string{"fixed", "flexible"}
	seeds := map[uint64]cell{}
	keys := map[string]cell{}
	for _, c := range cells {
		s := rng.DeriveSeed(1, uint64(c.f), uint64(c.r), uint64(c.l), uint64(c.ai))
		if prev, dup := seeds[s]; dup {
			t.Errorf("cells %+v and %+v derive the same seed", c, prev)
		}
		seeds[s] = c
		k := pointKey("figure5", 1, Quick, c.f, c.r, c.l, archs[c.ai])
		if prev, dup := keys[k]; dup {
			t.Errorf("cells %+v and %+v derive the same key", c, prev)
		}
		keys[k] = c
	}
}

// TestSweepKeysMatchSweepOrder pins the planner contract: the keys
// PointKeys enumerates are exactly the keys the sweep attaches to its
// points, in the same cell order — otherwise the serve planner would
// count coverage against entries the engine never writes.
func TestSweepKeysMatchSweepOrder(t *testing.T) {
	e, ok := Get("figure5")
	if !ok || e.PointKeys == nil {
		t.Fatal("figure5 has no PointKeys planner")
	}
	g := Grids{F: []int{64}, R: []int{8}, L: []int{16, 32}}
	planned := e.PointKeys(1, Quick, g)
	archs := []string{"fixed", "flexible"}
	var built []string
	for _, l := range []int{16, 32} {
		for _, a := range archs {
			built = append(built, pointKey("figure5", 1, Quick, 64, 8, l, a))
		}
	}
	if len(planned) != len(built) {
		t.Fatalf("planned %d keys, built %d", len(planned), len(built))
	}
	for i := range planned {
		if planned[i] != built[i] {
			t.Fatalf("key %d: planner and sweep disagree", i)
		}
	}
}

// TestPointKeyGolden pins the exact key bytes for a few cells at the sim
// and analytic tiers. A persisted store addresses its entries by these
// strings, so any change to them — a reordered preimage field, a
// different integer formatting — must arrive as a deliberate pointSchema
// bump, never as a side effect of a refactor. The engine version is
// injected so the values do not depend on the test binary.
func TestPointKeyGolden(t *testing.T) {
	const engine = "golden-engine"
	cases := []struct {
		fid    Fidelity
		exp    string
		seed   uint64
		scale  Scale
		f, r   int
		l      int
		arch   string
		golden string
	}{
		{FidelitySim, "figure5", 1, Quick, 64, 8, 16, "fixed",
			"e1c0db95c0be6ad67c2513a68f1239ae3ae2cf4b5308f9f7b20a0cb6ed518bda"},
		{FidelitySim, "figure6", 42, Full, 256, 512, 1024, "flexible",
			"0c300648014d7955425a32f7a643517a398e70a647f9091ddc76d566dcc61ae6"},
		{FidelitySim, "figure6a-cheap", 1<<64 - 1, Quick, 4096, 1 << 20, 1, "flexible-lookup",
			"f437c6807a7f0870194836dacd22b85162363bef1a5c27ba8c34b086399e0809"},
		{FidelityAnalytic, "figure5", 1, Quick, 128, 32, 64, "flexible",
			"3b88ef7d110d7546a64547e336983bc576ac013c11d190ef00602b6e35f31738"},
		{FidelityAnalytic, "homogeneous-c8", 0, Full, 64, 1, 512, "fixed",
			"f53faf827ff0fb1ead1381d190d4a9d6a3ec7ced7f94dd3a3bcb70eae85059d9"},
	}
	for _, c := range cases {
		got := pointKeyWith(engine, c.fid, c.exp, c.seed, c.scale.Threads, c.scale.workPer(c.r), c.f, c.r, c.l, c.arch)
		if got != c.golden {
			t.Errorf("pointKey(%s %s seed=%d f=%d r=%d l=%d %s) = %s, want %s",
				c.fid, c.exp, c.seed, c.f, c.r, c.l, c.arch, got, c.golden)
		}
	}
}

func BenchmarkPointKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pointKey("figure5", uint64(i), Quick, 128, 32, 64, "flexible")
	}
}
