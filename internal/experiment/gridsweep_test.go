package experiment

import (
	"bytes"
	"testing"
)

// TestGridSweepDerivationsAgree is the registry-wide equivalence check
// for registerSweep: for every experiment with ComputeCells, at the sim
// and analytic tiers, PointKeys(g) must equal, in order, the keys
// ComputeCells returns for the grid's cells, and each cell's bytes
// must be the encoding of the matching RunGrid point. The cells are
// read off the RunGrid report, so the report's cell order is checked
// too.
func TestGridSweepDerivationsAgree(t *testing.T) {
	g := Grids{F: []int{64}, R: []int{32}, L: []int{128, 64}}
	sweeps := 0
	for _, e := range All() {
		if e.ComputeCells == nil {
			continue
		}
		sweeps++
		if e.RunGrid == nil || e.PointKeys == nil {
			t.Errorf("%s has ComputeCells but no RunGrid/PointKeys", e.ID)
			continue
		}
		for _, fid := range []Fidelity{FidelitySim, FidelityAnalytic} {
			t.Run(e.ID+"/"+string(fid), func(t *testing.T) {
				sc := tiny
				sc.Fidelity = fid
				rep := e.RunGrid(1, sc, g)
				if rep.Err != nil {
					t.Fatal(rep.Err)
				}
				keys := e.PointKeys(1, sc, g)
				cells := make([]Cell, len(rep.Points))
				for i, m := range rep.Points {
					cells[i] = Cell{F: m.F, R: m.R, L: m.L, Arch: m.Arch}
				}
				res, err := e.ComputeCells(1, sc, cells)
				if err != nil {
					t.Fatal(err)
				}
				if len(keys) != len(cells) || len(res) != len(cells) {
					t.Fatalf("%d keys, %d cells, %d results", len(keys), len(cells), len(res))
				}
				for i, r := range res {
					if r.Key != keys[i] {
						t.Errorf("cell %d %+v: ComputeCells key differs from PointKeys", i, cells[i])
					}
					if want := encodeMeasurements(fid, rep.Points[i:i+1]); !bytes.Equal(r.Data, want) {
						t.Errorf("cell %d %+v: ComputeCells bytes differ from the RunGrid point", i, cells[i])
					}
				}
			})
		}
	}
	if sweeps != 7 {
		t.Errorf("%d experiments have ComputeCells, want the 7 registered grid sweeps", sweeps)
	}
}
