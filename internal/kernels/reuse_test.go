package kernels

import (
	"bytes"
	"context"
	"os"
	"testing"

	"pandora/internal/diffcheck"
)

// TestEnumerateMatchesGolden regenerates the full contract table at one
// and at two workers and requires both to equal the committed
// CONTRACT_table.json byte for byte. Each worker runs its cells on one
// reused simulator, so a reset that misses any state shows up here as a
// changed verdict or first event.
func TestEnumerateMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full 15,360-cell enumeration")
	}
	golden, err := os.ReadFile("../../CONTRACT_table.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		rep, err := Enumerate(context.Background(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := rep.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Errorf("Workers=%d: report differs from CONTRACT_table.json", workers)
		}
	}
}

// TestWarmCellAllocs pins what reuse saves: over every kernel × cache
// variant at the two extreme masks, cells run on a warm simulator
// allocate at most half the objects of cells on fresh ones. What a warm
// cell still allocates is per-cell by design: the taint state, the
// mask's predictor and reuse tables, and the kernel's reference check.
func TestWarmCellAllocs(t *testing.T) {
	ctx := context.Background()
	var warm, fresh float64
	cells := 0
	for _, k := range Kernels() {
		for _, v := range diffcheck.CacheVariants() {
			for _, mask := range []diffcheck.ToggleMask{0, diffcheck.AllMasks - 1} {
				var cellErr error
				cell := func(sim *diffcheck.Sim) func() {
					return func() {
						if _, err := runCell(ctx, sim, k, v, mask); err != nil {
							cellErr = err
						}
					}
				}
				warm += testing.AllocsPerRun(3, cell(new(diffcheck.Sim)))
				fresh += testing.AllocsPerRun(3, func() { cell(new(diffcheck.Sim))() })
				if cellErr != nil {
					t.Fatal(cellErr)
				}
				cells++
			}
		}
	}
	t.Logf("objects per cell: warm %.0f, fresh %.0f", warm/float64(cells), fresh/float64(cells))
	if warm > fresh/2 {
		t.Errorf("warm cells allocate %.0f%% of the objects fresh ones do, want at most half", 100*warm/fresh)
	}
}
