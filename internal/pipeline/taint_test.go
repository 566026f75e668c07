package pipeline_test

import (
	"math/rand"
	"testing"

	"pandora/internal/cache"
	"pandora/internal/diffcheck"
	"pandora/internal/emu"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
	"pandora/internal/taint"
	"pandora/internal/uopt"
)

// shadowConfigs are the machine variants the equivalence test covers.
// Value prediction is deliberately absent: its consumers may read the
// predictor-table shadow (taint.State.Pred) while the producing load is
// in flight, an over-approximation the in-order emulator has no
// counterpart for.
func shadowConfigs() map[string]func() pipeline.Config {
	return map[string]func() pipeline.Config{
		"baseline": pipeline.DefaultConfig,
		"silentstores": func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.SilentStores = pipeline.SilentStoreConfig{Scheme: pipeline.SSReadPortStealing}
			return c
		},
		"silentstores-lsq": func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.SilentStores = pipeline.SilentStoreConfig{Scheme: pipeline.SSLSQCompare}
			return c
		},
		"compsimp": func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.Simplifier = uopt.Simplifier{ZeroSkipMul: true, TrivialALU: true, EarlyExitDiv: true}
			return c
		},
		"packing": func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.Packing = true
			return c
		},
		"reuse-sv": func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.Reuse = uopt.SchemeSv
			return c
		},
		"rfc": func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.RFC = uopt.RFCAnyValue
			return c
		},
		"fusion": func() pipeline.Config {
			c := pipeline.DefaultConfig()
			c.FuseAddiLoad = true
			return c
		},
	}
}

// TestShadowEquivalence checks that the pipeline's retire-time label
// propagation computes exactly the emulator's shadow state: same final
// register labels, same shadow memory, same control set — for the same
// program and secret region, across optimization configs. The pipeline's
// speculation, forwarding and optimizations may reorder execution, but
// retire order is program order, so the shadows must agree bit for bit.
func TestShadowEquivalence(t *testing.T) {
	for name, mk := range shadowConfigs() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				prog := diffcheck.Generate(rng)
				bases, span := diffcheck.ScratchRegions()
				sec := taint.Secret{
					Name: "s",
					Base: bases[rng.Intn(len(bases))] + uint64(rng.Intn(int(span)/16))*8,
					Len:  uint64(8 * (1 + rng.Intn(4))),
				}

				memE := mem.New()
				diffcheck.InitMemory(memE)
				stE := taint.NewState()
				if _, err := stE.DefineSecret(sec); err != nil {
					t.Fatal(err)
				}
				mcE := emu.New(memE)
				stE.Attach(mcE)
				if err := mcE.Run(prog, 200000); err != nil {
					t.Fatalf("seed %d: emu: %v", seed, err)
				}

				memP := mem.New()
				diffcheck.InitMemory(memP)
				stP := taint.NewState()
				if _, err := stP.DefineSecret(sec); err != nil {
					t.Fatal(err)
				}
				cfg := mk()
				cfg.Taint = stP
				cfg.CheckInvariants = true
				m := pipeline.MustNew(cfg, memP, cache.MustNewHierarchy(cache.DefaultHierConfig()))
				if _, err := m.Run(prog); err != nil {
					t.Fatalf("seed %d: pipeline: %v", seed, err)
				}

				if stE.Control != stP.Control {
					t.Fatalf("seed %d: control set: emu=%v pipeline=%v", seed, stE.Control, stP.Control)
				}
				for r := 1; r < isa.NumRegs; r++ {
					if stE.Regs[r] != stP.Regs[r] {
						t.Fatalf("seed %d: x%d labels: emu=%v pipeline=%v", seed, r, stE.Regs[r], stP.Regs[r])
					}
				}
				if stE.Mem.Labeled() != stP.Mem.Labeled() {
					t.Fatalf("seed %d: labeled byte count: emu=%d pipeline=%d",
						seed, stE.Mem.Labeled(), stP.Mem.Labeled())
				}
				stE.Mem.Each(func(a uint64, l taint.LabelSet) {
					if got := stP.Mem.Get(a); got != l {
						t.Fatalf("seed %d: shadow mem[%#x]: emu=%v pipeline=%v", seed, a, l, got)
					}
				})
			}
		})
	}
}
