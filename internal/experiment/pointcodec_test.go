package experiment

import (
	"bytes"
	"context"
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

// withNegativeWindowed returns a copy of a valid one-or-more-measurement
// entry whose first measurement's first windowed cycle count reads -1:
// the byte after the windowed presence flag becomes 0x01, zigzag -1.
func withNegativeWindowed(t *testing.T, data []byte) []byte {
	t.Helper()
	d := &decoder{buf: data[2:]}
	d.uvarint("count")
	d.bytes("panel")
	d.bytes("arch")
	d.varint("r")
	d.varint("l")
	d.varint("f")
	d.float("eff")
	d.bytes("name")
	if d.byteVal("windowed") != 1 || d.err != nil {
		t.Fatalf("entry has no windowed account: %v", d.err)
	}
	bad := append([]byte(nil), data...)
	bad[len(data)-len(d.buf)] = 0x01
	return bad
}

// peerFunc adapts a function to PointComputer.
type peerFunc func(ctx context.Context, sweep RemoteSweep, emit func(key string, data []byte)) error

func (f peerFunc) ComputePoints(ctx context.Context, sweep RemoteSweep, emit func(key string, data []byte)) error {
	return f(ctx, sweep, emit)
}

// TestDecodeNegativeCyclesErrors is the regression test for a decoder
// panic: a cycle count of -1 used to reach CycleAccount.Charge, which
// panics on negative charges. Entries come from disk and from cluster
// peers, so the decoder must return an error instead — and a peer
// answering with such bytes must leave the coordinator running, with
// the cells simulated locally.
func TestDecodeNegativeCyclesErrors(t *testing.T) {
	bad := withNegativeWindowed(t, encodeMeasurements(FidelitySim, sampleMeasurements()))
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decoder panicked: %v", r)
			}
		}()
		if _, err := decodeMeasurements(FidelitySim, bad); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("negative cycle count: err = %v, want a negative-count error", err)
		}
	}()

	g := Grids{F: []int{64}, R: []int{8}, L: []int{16}}
	want, err := figure5.measure(1, Quick, g)
	if err != nil {
		t.Fatal(err)
	}
	var emitted int
	sc := Quick
	sc.Remote = peerFunc(func(ctx context.Context, sweep RemoteSweep, emit func(string, []byte)) error {
		cells := make([]Cell, len(sweep.Points))
		for i, p := range sweep.Points {
			cells[i] = Cell{F: p.F, R: p.R, L: p.L, Arch: p.Arch}
		}
		res, err := figure5.compute(sweep.Seed, Quick, cells)
		if err != nil {
			return err
		}
		for _, cr := range res {
			emit(cr.Key, withNegativeWindowed(t, cr.Data))
			emitted++
		}
		return nil
	})
	got, err := figure5.measure(1, sc, g)
	if err != nil {
		t.Fatal(err)
	}
	if emitted == 0 {
		t.Fatal("the peer was never asked for a cell")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("cells answered with negative cycle counts did not fall back to local simulation")
	}
}

// TestPointCodecRejectsOverlongVarint pins canonical decoding: the
// encoder writes minimal varints only, so a padded one (here the count
// 1 as 0x81 0x00) is damage. Accepting it would let two byte strings
// decode to the same point, and re-encoding would not reproduce the
// entry.
func TestPointCodecRejectsOverlongVarint(t *testing.T) {
	data := encodeMeasurements(FidelitySim, make([]Measurement, 1))
	if data[2] != 1 {
		t.Fatalf("count byte = %#x, want 1", data[2])
	}
	padded := append([]byte{data[0], data[1], 0x81, 0x00}, data[3:]...)
	if _, err := decodeMeasurements(FidelitySim, padded); err == nil {
		t.Error("overlong varint accepted")
	}
}

// realEntries encodes the measurements of a few real cells: figure5 and
// figure6 sim cells (with both cycle accounts) and analytic cells (with
// none).
func realEntries(t testing.TB) map[Fidelity][][]Measurement {
	out := map[Fidelity][][]Measurement{}
	for _, fid := range []Fidelity{FidelitySim, FidelityAnalytic} {
		sc := Quick
		sc.Fidelity = fid
		for _, s := range []*gridSweep{figure5, figure6} {
			pts, err := s.points(1, sc, s.cells(Grids{F: []int{64}, R: []int{32}, L: []int{64}}))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts {
				out[fid] = append(out[fid], p.runLocal(sc))
			}
		}
	}
	return out
}

// TestPointCodecRoundTripReal checks encode∘decode is the identity on
// measurements the backends really produce, labels included: decoding
// shares known label strings, which must not change a value.
func TestPointCodecRoundTripReal(t *testing.T) {
	for fid, cells := range realEntries(t) {
		for _, ms := range cells {
			out, err := decodeMeasurements(fid, encodeMeasurements(fid, ms))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(out, ms) {
				t.Errorf("%s round trip not exact:\n in: %+v\nout: %+v", fid, ms, out)
			}
		}
	}
}

// FuzzDecodeMeasurements feeds the point decoder arbitrary bytes, as a
// damaged disk tier or a hostile cluster peer could. Oracles: decoding
// never panics (a panic fails the fuzz run); an accepted entry
// re-encodes to exactly its input bytes; and an accepted entry holds no
// more measurements than its length could encode, the bound the
// decoder checks before allocating. The seed corpus under
// testdata/fuzz/FuzzDecodeMeasurements holds real sim and analytic
// entries and damaged variants of them.
func FuzzDecodeMeasurements(f *testing.F) {
	f.Add(encodeMeasurements(FidelitySim, sampleMeasurements()))
	f.Add(encodeMeasurements(FidelityAnalytic, make([]Measurement, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fid := range []Fidelity{FidelitySim, FidelityMachine, FidelityAnalytic} {
			ms, err := decodeMeasurements(fid, data)
			if err != nil {
				continue
			}
			if limit := (len(data) - 2) / minEncodedMeasurement; len(ms) > limit {
				t.Fatalf("%d bytes decoded to %d measurements, bound %d", len(data), len(ms), limit)
			}
			if re := encodeMeasurements(fid, ms); !bytes.Equal(re, data) {
				t.Fatalf("accepted entry re-encodes differently:\n in: %x\nout: %x", data, re)
			}
		}
	})
}
