package diffcheck

import (
	"math/rand"
	"testing"

	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
)

// TestWarmValuePredictorNoFalseDivergence reruns a generated program on
// one machine, so the second run starts with a value predictor trained by
// the first. A branch that consumes a wrong value prediction computes the
// wrong direction before the load completes and squashes it; that is the
// predictor's squash-and-replay at work, not a machine divergence. This
// program (the 12th drawn from seed 282) used to fail its second run with
// "branch divergence at pc=12".
func TestWarmValuePredictorNoFalseDivergence(t *testing.T) {
	rng := rand.New(rand.NewSource(282))
	prog := Generate(rng)
	for i := 1; i < 12; i++ {
		prog = Generate(rng)
	}
	pm := mem.New()
	InitMemory(pm)
	m, err := pipeline.New(PipeConfig(TogPredictor), pm, cache.MustNewHierarchy(cache.DefaultHierConfig()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := m.Run(prog); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	cold := m.Stats().ValueSquashes
	res, err := m.Run(prog)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if res.Stats.ValueSquashes == cold {
		t.Fatalf("no value squash on the warm run: the program no longer exercises a wrong prediction")
	}
}
