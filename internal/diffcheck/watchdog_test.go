package diffcheck

import (
	"math/rand"
	"testing"

	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
)

// TestWatchdogNeverTripsOnCleanPrograms runs a generated program under
// every optimization-toggle combination: a fault-free run must never be
// declared livelocked by the forward-progress watchdog every run carries.
// This pins the false-positive rate of the progress window at zero across
// the whole toggle space.
func TestWatchdogNeverTripsOnCleanPrograms(t *testing.T) {
	prog := Generate(rand.New(rand.NewSource(7)))
	for mask := ToggleMask(0); mask < AllMasks; mask++ {
		m := mem.New()
		InitMemory(m)
		pipe, err := pipeline.New(PipeConfig(mask), m, cache.MustNewHierarchy(cache.DefaultHierConfig()))
		if err != nil {
			t.Fatalf("mask %v: New: %v", mask, err)
		}
		if _, err := pipe.Run(prog); err != nil {
			t.Fatalf("mask %v: %v", mask, err)
		}
	}
}
