package experiment

import (
	"encoding/binary"
	"fmt"
	"math"

	"regreloc/internal/node"
	"regreloc/internal/stats"
)

// This file is the point store's value codec: one sweep point's
// []Measurement to bytes and back, exactly. "Exactly" is load-bearing
// — a report assembled from memoized points must be byte-identical to
// a cold run, so every field round-trips losslessly: floats travel as
// their IEEE-754 bit patterns (never through decimal formatting), and
// the cycle accounts are copied activity by activity. The format is
// versioned; decodeMeasurements rejects foreign versions so a decode
// can never silently misread (point keys already embed the engine
// version, making a version mismatch corruption, not staleness).

// pointCodecVersion is the first byte of every encoded entry. Bump it
// together with pointSchema whenever Measurement or node.Result gain
// or change fields (TestPointCodecCoversResultFields enforces the
// field inventory). v2 added the fidelity tier tag as the second
// byte.
const pointCodecVersion = 2

// tierTag maps a fidelity tier to the codec's one-byte tag. The tag
// is defence in depth: point keys already separate tiers, so a tag
// mismatch at decode time means a corrupted or mis-addressed store —
// decodeMeasurements rejects it rather than silently serving one
// tier's numbers as another's.
func tierTag(fid Fidelity) byte {
	switch fid {
	case FidelityMachine:
		return 2
	case FidelityAnalytic:
		return 3
	default: // FidelitySim and the zero value
		return 1
	}
}

// encodeMeasurements serializes one point's measurements, tagged with
// the tier that produced them.
func encodeMeasurements(fid Fidelity, ms []Measurement) []byte {
	// Typical entry: one or two measurements, short strings; 64 bytes
	// of headroom per measurement avoids regrowth.
	buf := make([]byte, 0, 2+10+len(ms)*192)
	buf = append(buf, pointCodecVersion, tierTag(fid))
	buf = binary.AppendUvarint(buf, uint64(len(ms)))
	for i := range ms {
		buf = appendMeasurement(buf, &ms[i])
	}
	return buf
}

// minEncodedMeasurement is the shortest encoding appendMeasurement
// produces (a zero Measurement): three empty strings and two absent
// cycle accounts at one byte each, four 8-byte floats, and twelve
// one-byte varints (R, L, F, Completed, MaxResident and the seven op
// counts). decodeMeasurements bounds an entry's count by it, so a
// hostile header cannot make the decoder allocate more Measurements
// (~192 bytes each in memory) than its input could possibly encode.
const minEncodedMeasurement = 3*1 + 2*1 + 4*8 + 12*1

func appendMeasurement(buf []byte, m *Measurement) []byte {
	buf = appendString(buf, m.Panel)
	buf = appendString(buf, m.Arch)
	buf = binary.AppendVarint(buf, int64(m.R))
	buf = binary.AppendVarint(buf, int64(m.L))
	buf = binary.AppendVarint(buf, int64(m.F))
	buf = appendFloat(buf, m.Eff)

	buf = appendString(buf, m.Res.Name)
	buf = appendAccount(buf, m.Res.Windowed)
	buf = appendAccount(buf, m.Res.Full)
	buf = appendFloat(buf, m.Res.Efficiency)
	buf = binary.AppendVarint(buf, int64(m.Res.Completed))
	buf = appendFloat(buf, m.Res.AvgResident)
	buf = binary.AppendVarint(buf, int64(m.Res.MaxResident))
	buf = appendFloat(buf, m.Res.AvgWastedRegs)
	for _, v := range []int64{m.Res.Allocs, m.Res.AllocFails, m.Res.Deallocs,
		m.Res.Loads, m.Res.Unloads, m.Res.Faults, m.Res.Probes} {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// appendAccount encodes a cycle account as a presence flag plus one
// varint per activity, in Activities() order.
func appendAccount(buf []byte, acc *stats.CycleAccount) []byte {
	if acc == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	for _, a := range activities {
		buf = binary.AppendVarint(buf, acc.Get(a))
	}
	return buf
}

// activities is stats.Activities(), listed once rather than per
// encoded or decoded account.
var activities = stats.Activities()

// knownLabels holds every Panel, Arch and Res.Name a registered sweep's
// default grid can produce (noteLabels), each mapped to itself. The
// decoder returns these shared strings instead of allocating one per
// decoded label; a label outside the set (a panel for a non-default F)
// is still decoded, just allocated. Written only while the package
// initializes, read-only afterwards.
var knownLabels = map[string]string{"machine": "machine"}

// noteLabels adds s's labels to knownLabels. Called from the register
// functions, during package initialization.
func (s *gridSweep) noteLabels() {
	note := func(v string) { knownLabels[v] = v }
	for _, f := range s.f {
		note(panelName(f))
	}
	for _, a := range s.archs {
		note(a.name)
		for _, f := range s.f {
			note(a.cfg(f).Name)
		}
	}
}

// decoder walks an encoded entry; the first decoding error sticks and
// poisons every later read, so call sites check err once at the end.
// It returns an error, never panics, on any input: entries arrive from
// disk and from cluster peers.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("experiment: point entry truncated at %s", what)
	}
}

// uvarint and varint accept only complete, minimal varints. The
// encoder writes minimal varints only, so an overlong one (its last
// byte a 0x00 continuation) can only be damage — and rejecting it keeps
// decode∘encode the identity on every entry the decoder accepts.
func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) {
		d.badVarint(n, what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) {
		d.badVarint(n, what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// badVarint records why the varint at what was rejected, given the
// length binary.(U)varint returned.
func (d *decoder) badVarint(n int, what string) {
	if n <= 0 {
		d.fail(what)
	} else if d.err == nil {
		d.err = fmt.Errorf("experiment: point entry has a non-minimal varint at %s", what)
	}
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (d *decoder) bytes(what string) []byte {
	n := d.uvarint(what)
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)) < n {
		d.fail(what)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// label reads a string, sharing the knownLabels copy when there is one.
func (d *decoder) label(what string) string {
	b := d.bytes(what)
	if s, ok := knownLabels[string(b)]; ok {
		return s
	}
	return string(b)
}

func (d *decoder) float(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) byteVal(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.fail(what)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// accounts decodes a result's windowed and full cycle accounts. Both
// live in one allocation. A negative cycle count is an error: the
// encoder never writes one, and CycleAccount.Charge panics on it.
func (d *decoder) accounts(res *node.Result) {
	var pair *[2]stats.CycleAccount
	for i, what := range [2]string{"windowed", "full"} {
		switch d.byteVal(what) {
		case 0:
			continue
		case 1:
		default:
			if d.err == nil {
				d.err = fmt.Errorf("experiment: point entry has a bad %s presence flag", what)
			}
			return
		}
		if pair == nil {
			pair = new([2]stats.CycleAccount)
		}
		acc := &pair[i]
		for _, a := range activities {
			v := d.varint(what)
			if d.err != nil {
				return
			}
			if v < 0 {
				d.err = fmt.Errorf("experiment: point entry has negative %s %v cycles %d", what, a, v)
				return
			}
			acc.Charge(a, v)
		}
		if i == 0 {
			res.Windowed = acc
		} else {
			res.Full = acc
		}
	}
}

// decodeMeasurements is encodeMeasurements' exact inverse. The caller
// states the tier it expects; an entry tagged with any other tier is
// rejected, so an analytic point can never decode into a sim report
// (or vice versa) even if a store were mis-addressed.
func decodeMeasurements(fid Fidelity, data []byte) ([]Measurement, error) {
	if len(data) == 0 || data[0] != pointCodecVersion {
		return nil, fmt.Errorf("experiment: point entry codec version mismatch")
	}
	if len(data) < 2 {
		return nil, fmt.Errorf("experiment: point entry truncated at tier tag")
	}
	if data[1] != tierTag(fid) {
		return nil, fmt.Errorf("experiment: point entry fidelity mismatch: tag %d, want %d (%s)",
			data[1], tierTag(fid), fid)
	}
	d := &decoder{buf: data[2:]}
	n := d.uvarint("count")
	if d.err != nil {
		return nil, d.err
	}
	if n > uint64(len(d.buf)/minEncodedMeasurement) {
		return nil, fmt.Errorf("experiment: point entry count %d implausible for %d bytes", n, len(d.buf))
	}
	ms := make([]Measurement, n)
	for i := range ms {
		m := &ms[i]
		m.Panel = d.label("panel")
		m.Arch = d.label("arch")
		m.R = int(d.varint("r"))
		m.L = int(d.varint("l"))
		m.F = int(d.varint("f"))
		m.Eff = d.float("eff")

		m.Res.Name = d.label("name")
		d.accounts(&m.Res)
		m.Res.Efficiency = d.float("efficiency")
		m.Res.Completed = int(d.varint("completed"))
		m.Res.AvgResident = d.float("avg_resident")
		m.Res.MaxResident = int(d.varint("max_resident"))
		m.Res.AvgWastedRegs = d.float("avg_wasted_regs")
		for _, p := range []*int64{&m.Res.Allocs, &m.Res.AllocFails, &m.Res.Deallocs,
			&m.Res.Loads, &m.Res.Unloads, &m.Res.Faults, &m.Res.Probes} {
			*p = d.varint("op count")
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("experiment: point entry has %d trailing bytes", len(d.buf))
	}
	return ms, nil
}
