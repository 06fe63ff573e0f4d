package experiment

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"regreloc/internal/node"
	"regreloc/internal/stats"
)

func sampleMeasurements() []Measurement {
	w := &stats.CycleAccount{}
	f := &stats.CycleAccount{}
	for i, a := range stats.Activities() {
		w.Charge(a, int64(100*i+7))
		f.Charge(a, int64(1000*i+13))
	}
	return []Measurement{
		{
			Panel: "F=64", Arch: "flexible", R: 8, L: 16, F: 64,
			Eff: 0.1 + 0.2, // deliberately not exactly representable
			Res: node.Result{
				Name: "flexible", Windowed: w, Full: f,
				Efficiency: math.Nextafter(0.75, 1), Completed: 32,
				AvgResident: 3.9999999999999996, MaxResident: 7,
				AvgWastedRegs: 1.25, Allocs: 11, AllocFails: 2, Deallocs: 9,
				Loads: 40, Unloads: 38, Faults: 123, Probes: 456,
			},
		},
		// Zero-value result with nil accounts (the analytic panel's
		// model-only measurements look like this).
		{Panel: "N-sweep", Arch: "analytic", R: 64, L: 3, F: 128, Eff: 0.5},
	}
}

// TestPointCodecRoundTrip pins the byte-identity contract at the codec
// level: decode(encode(ms)) must reproduce every field exactly —
// including float bit patterns and cycle accounts — because a report
// assembled from stored points is compared byte-for-byte against a
// cold run.
func TestPointCodecRoundTrip(t *testing.T) {
	in := sampleMeasurements()
	out, err := decodeMeasurements(FidelitySim, encodeMeasurements(FidelitySim, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip not exact:\n in: %+v\nout: %+v", in, out)
	}
	// Empty point (a cell can legitimately produce no measurements).
	if out, err := decodeMeasurements(FidelitySim, encodeMeasurements(FidelitySim, nil)); err != nil || len(out) != 0 {
		t.Fatalf("empty round trip = %v, %v", out, err)
	}
}

// TestPointCodecRejectsDamage checks the decoder fails loudly instead
// of misreading: wrong version, truncation at any prefix, and trailing
// bytes are all errors (the engine then recomputes the point).
func TestPointCodecRejectsDamage(t *testing.T) {
	data := encodeMeasurements(FidelitySim, sampleMeasurements())
	if _, err := decodeMeasurements(FidelitySim, nil); err == nil {
		t.Error("empty input accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = pointCodecVersion + 1
	if _, err := decodeMeasurements(FidelitySim, bad); err == nil {
		t.Error("foreign codec version accepted")
	}
	for _, cut := range []int{1, 2, len(data) / 2, len(data) - 1} {
		if _, err := decodeMeasurements(FidelitySim, data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeMeasurements(FidelitySim, append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestPointCodecBoundsCount is the regression test for the decoder's
// allocation bound. A zero Measurement encodes to exactly
// minEncodedMeasurement bytes, so a count of len(buf)/min is the most
// any honest entry can carry and decodes; a crafted header claiming
// count = len(buf) is rejected before any Measurement is allocated
// (the old bound, count <= len(buf), let a 1 MB entry demand ~192 MB).
func TestPointCodecBoundsCount(t *testing.T) {
	if got := len(appendMeasurement(nil, &Measurement{})); got != minEncodedMeasurement {
		t.Fatalf("zero Measurement encodes to %d bytes, minEncodedMeasurement = %d", got, minEncodedMeasurement)
	}
	const n = 100
	densest := encodeMeasurements(FidelitySim, make([]Measurement, n))
	if out, err := decodeMeasurements(FidelitySim, densest); err != nil || len(out) != n {
		t.Fatalf("%d zero measurements: decoded %d, %v", n, len(out), err)
	}

	body := make([]byte, 64<<10)
	crafted := binary.AppendUvarint([]byte{pointCodecVersion, tierTag(FidelitySim)}, uint64(len(body)))
	crafted = append(crafted, body...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeMeasurements(FidelitySim, crafted)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("count = len(buf) not rejected at the header: %v", err)
	}
	// Trusting the count would allocate len(body) Measurements (~12 MB).
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("rejecting a crafted count allocated %d bytes", alloc)
	}
}

// TestPointCodecCoversResultFields freezes the field inventories the
// codec encodes. If Measurement or node.Result gain a field, this test
// fails until the codec is extended and pointCodecVersion + pointSchema
// are bumped — silently dropping a new field would make "cache hit"
// and "cold run" reports diverge.
func TestPointCodecCoversResultFields(t *testing.T) {
	if n := reflect.TypeOf(Measurement{}).NumField(); n != 7 {
		t.Errorf("Measurement has %d fields, codec encodes 7: extend the codec and bump pointCodecVersion", n)
	}
	if n := reflect.TypeOf(node.Result{}).NumField(); n != 15 {
		t.Errorf("node.Result has %d fields, codec encodes 15: extend the codec and bump pointCodecVersion", n)
	}
	if n := len(stats.Activities()); n != 9 {
		t.Errorf("stats has %d activities, codec assumes 9: bump pointCodecVersion", n)
	}
}
