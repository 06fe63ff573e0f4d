package experiment_test

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

var updateGolden = flag.Bool("update", false, "rewrite the quick-scale golden reports from the current simulator")

// TestFigure5QuickGolden pins the figure5 quick-scale report to the
// exact bytes it produced before the allocation-free rework of the
// simulation hot paths (sim queue, scheduler, node state pooling,
// allocator fast paths). Byte identity for a given seed is a hard
// contract: the serve daemon's content-addressed store and the
// parallel-vs-sequential sweep guarantee both depend on it, so any
// optimization that changes these bytes — however slightly — is a
// correctness bug, not a tuning choice.
//
// To regenerate after an INTENTIONAL behaviour change (new columns, a
// model fix), run the golden tests with -update and say why in the
// commit message.
func TestFigure5QuickGolden(t *testing.T) { checkQuickGolden(t, "figure5") }

// TestFigure6QuickGolden is TestFigure5QuickGolden for the
// synchronization-fault figure, whose two-phase policy drives the
// probe and unload paths that figure5's never-unload policy skips.
func TestFigure6QuickGolden(t *testing.T) { checkQuickGolden(t, "figure6") }

func checkQuickGolden(t *testing.T, id string) {
	t.Helper()
	if testing.Short() {
		t.Skip("quick sweep is a few seconds; skipped in -short")
	}
	path := "testdata/" + id + "_quick_seed1.golden.csv"
	e, ok := experiment.Get(id)
	if !ok {
		t.Fatalf("%s experiment not registered", id)
	}
	r := e.Run(1, experiment.Quick)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	got := []byte(experiment.CSV(r))
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s quick seed=1 report is not byte-identical to the golden file (got %d bytes, want %d); simulation results drifted",
			id, len(got), len(want))
	}
}

// TestFigure5GoldenFromPointCache extends the golden contract to the
// memoized path: a report assembled from point-store entries — encoded,
// stored, evicted to disk, reloaded, and decoded — must be
// byte-identical to the cold run above, at any worker count. This is
// what makes point-granular caching sound: if assembly-from-cache could
// drift even one byte, a cache hit would be a wrong answer.
func TestFigure5GoldenFromPointCache(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweeps are a few seconds; skipped in -short")
	}
	want, err := os.ReadFile("testdata/figure5_quick_seed1.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	e, ok := experiment.Get("figure5")
	if !ok {
		t.Fatal("figure5 experiment not registered")
	}

	// Cold run with an empty store: must simulate everything, produce
	// golden bytes, and populate the store.
	dir := t.TempDir()
	store, err := pointstore.New(8<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := experiment.Quick
	cold.PointStore = store
	r := e.Run(1, cold)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := []byte(experiment.CSV(r)); !bytes.Equal(got, want) {
		t.Fatalf("cold run through the point store drifted from golden (got %d bytes, want %d)",
			len(got), len(want))
	}
	if c := store.Counters(); c.Misses != int64(len(r.Points)) || c.Hits != 0 {
		t.Fatalf("cold run counters = %+v, want %d misses, 0 hits", c, len(r.Points))
	}

	// Persist and reload so warm assembly also crosses the disk tier's
	// checksum-verified entries, not just memory. Close releases the
	// dir's advisory lock so the warm stores below can claim it.
	if err := store.SaveIndex(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm runs across worker AND shard counts: every point resolves
	// from the store (zero new simulations) and the assembled report is
	// still byte-identical — order-independent by construction, and
	// independent of how keys distribute across store shards (the disk
	// tier written by one shard count is read back under another).
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 4} {
			warmStore, err := pointstore.NewWith(8<<20, dir, pointstore.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if warmStore.Shards() != shards {
				t.Fatalf("store has %d shards, want %d", warmStore.Shards(), shards)
			}
			warm := experiment.Quick
			warm.Workers = workers
			warm.PointStore = warmStore
			r := e.Run(1, warm)
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if got := []byte(experiment.CSV(r)); !bytes.Equal(got, want) {
				t.Fatalf("workers=%d shards=%d: cache-assembled report drifted from golden (got %d bytes, want %d)",
					workers, shards, len(got), len(want))
			}
			if c := warmStore.Counters(); c.Misses != 0 || c.Hits != int64(len(r.Points)) {
				t.Fatalf("workers=%d shards=%d: warm run counters = %+v, want all %d points served as hits",
					workers, shards, c, len(r.Points))
			}
			if err := warmStore.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
