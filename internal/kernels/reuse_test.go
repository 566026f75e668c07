package kernels

import (
	"bytes"
	"context"
	"os"
	"testing"

	"pandora/internal/core"
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
// variant at the two extreme masks, cells run on a warm scan context
// allocate at most half the objects of cells on fresh ones, and at most
// 10 each on average, under -race too. The machine keeps its predictor
// and reuse tables and the taint state its maps and registry across
// cells; what a warm cell still allocates is per-cell by design: the
// memory pages Setup writes, the kernel's reference check, and the
// cell's result with the details of the events it keeps.
func TestWarmCellAllocs(t *testing.T) {
	const warmCellAllocs = 10
	ctx := context.Background()
	var warm, fresh float64
	cells := 0
	for _, k := range Kernels() {
		for _, v := range diffcheck.CacheVariants() {
			for _, mask := range []diffcheck.ToggleMask{0, diffcheck.AllMasks - 1} {
				var cellErr error
				cell := func(sc *core.ScanContext) func() {
					return func() {
						if _, err := runCell(ctx, sc, k, v, mask); err != nil {
							cellErr = err
						}
					}
				}
				warm += testing.AllocsPerRun(3, cell(new(core.ScanContext)))
				fresh += testing.AllocsPerRun(3, func() { cell(new(core.ScanContext))() })
				if cellErr != nil {
					t.Fatal(cellErr)
				}
				cells++
			}
		}
	}
	t.Logf("objects per cell: warm %.1f, fresh %.1f", warm/float64(cells), fresh/float64(cells))
	if warm > fresh/2 {
		t.Errorf("warm cells allocate %.0f%% of the objects fresh ones do, want at most half", 100*warm/fresh)
	}
	if w := warm / float64(cells); w > warmCellAllocs {
		t.Errorf("a warm cell allocates %.1f objects, want at most %d", w, warmCellAllocs)
	}
}
