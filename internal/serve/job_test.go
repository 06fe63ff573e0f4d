package serve

import (
	"testing"

	"regreloc/internal/pointstore"
)

func TestRequestKeyCanonicalization(t *testing.T) {
	base := Request{Experiment: "figure5", Seed: 1}
	quick := Request{Experiment: "figure5", Seed: 1, Scale: "quick"}
	if base.Key() != quick.Key() {
		t.Error("default scale and explicit quick hash differently")
	}
	full := Request{Experiment: "figure5", Seed: 1, Scale: "full"}
	if base.Key() == full.Key() {
		t.Error("quick and full hash identically")
	}
	otherSeed := Request{Experiment: "figure5", Seed: 2}
	if base.Key() == otherSeed.Key() {
		t.Error("seeds hash identically")
	}
	g1 := Request{Experiment: "figure5", Seed: 1, F: []int{64, 128}}
	g2 := Request{Experiment: "figure5", Seed: 1, F: []int{128, 64}}
	if g1.Key() == g2.Key() {
		t.Error("grid order must be part of the identity (it changes point order)")
	}
}

func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"valid", Request{Experiment: "figure5", Seed: 1}, true},
		{"valid grids", Request{Experiment: "figure5", F: []int{64}, R: []int{8}, L: []int{16}}, true},
		{"missing id", Request{}, false},
		{"unknown id", Request{Experiment: "nope"}, false},
		{"bad scale", Request{Experiment: "figure5", Scale: "huge"}, false},
		{"grid on non-grid experiment", Request{Experiment: "analytic", F: []int{64}}, false},
		{"zero grid value", Request{Experiment: "figure5", L: []int{0}}, false},
		{"huge grid value", Request{Experiment: "figure5", F: []int{5000}}, false},
		{"too many values", Request{Experiment: "figure5", L: make33()}, false},
	}
	for _, tc := range cases {
		err := tc.req.validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
}

func make33() []int {
	out := make([]int, 33)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// TestRequestKeyGolden pins the exact job-key bytes for requests with
// and without F/R/L overrides: the report store addresses finished jobs
// by these strings, so changing them must be a deliberate cacheSchema
// bump. The engine version is injected so the values do not depend on
// the test binary; Key itself must agree with keyWith under the real
// engine version.
func TestRequestKeyGolden(t *testing.T) {
	const engine = "golden-engine"
	cases := []struct {
		req    Request
		golden string
	}{
		{Request{Experiment: "figure5", Seed: 1},
			"d4767536c09ed1adb26c06628cb07cdd9c5c6e3379193de20410b9228651fb53"},
		{Request{Experiment: "figure6", Seed: 1<<64 - 1, Scale: "full", Fidelity: "analytic"},
			"35d88576be0400ee8a08857fab68d01dec65c4bf53fe820551a299d75e893c03"},
		{Request{Experiment: "figure5", Seed: 7, Scale: "quick", Fidelity: "adaptive",
			F: []int{64, 128}, R: []int{8}, L: []int{16, 32, 1024}},
			"06bc8c6bd93b502b1b17e59c20cf440e0e03844b51eb6a4159c3c86bf8dcefd7"},
		{Request{Experiment: "figure5", Seed: 3, F: []int{}, R: []int{1 << 20}},
			"a224c0680307da7d178ca354cab59f0d24ee52f7d70bf05c389f4c6a2ea2619d"},
	}
	for _, c := range cases {
		if got := c.req.keyWith(engine); got != c.golden {
			t.Errorf("keyWith(%+v) = %s, want %s", c.req, got, c.golden)
		}
		if c.req.Key() != c.req.keyWith(pointstore.EngineVersion()) {
			t.Errorf("Key and keyWith(EngineVersion) disagree for %+v", c.req)
		}
	}
}
