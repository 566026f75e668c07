package pipeline_test

import (
	"errors"
	"math/rand"
	"testing"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/diffcheck"
	"pandora/internal/dmp"
	"pandora/internal/isa"
	"pandora/internal/kernels"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
	"pandora/internal/taint"
)

// The incremental ROB and readiness checks must report exactly what the
// full walk and sweep report, on the same cycle. These tests run both
// side by side (pipeline.CrossCheckInvariants) over programs from the
// differential generator and over the contract kernels.

// crossMasks are the toggle masks the generated corpus runs under: none,
// each single toggle, sp+sf, ss+sp+sf and all nine.
func crossMasks() []diffcheck.ToggleMask {
	masks := []diffcheck.ToggleMask{0}
	for i := 0; i < diffcheck.NumToggles; i++ {
		masks = append(masks, 1<<i)
	}
	spsf := diffcheck.TogSpec | diffcheck.TogStLF
	return append(masks, spsf, spsf|diffcheck.TogSilentStores, diffcheck.AllMasks-1)
}

// kernelMasks is a 64-mask sample of the 512: mask i<<3 | i&7, so every
// toggle is on in half the sample and both extremes are included.
func kernelMasks(n int) []diffcheck.ToggleMask {
	var masks []diffcheck.ToggleMask
	for i := 0; i < 64; i += 64 / n {
		masks = append(masks, diffcheck.ToggleMask(i<<3|i&7))
	}
	return masks
}

// crossRun runs prog on a fresh cross-checked machine under mask and
// cache variant v, with mem seeded by init, and returns the Run error.
func crossRun(prog isa.Program, mask diffcheck.ToggleMask, v diffcheck.CacheVariant, init func(*mem.Memory), cfg func(*pipeline.Config)) error {
	pm := mem.New()
	init(pm)
	hier, err := cache.NewHierarchy(v.Config)
	if err != nil {
		return err
	}
	if v.Stride {
		hier.AddListener(dmp.NewStride(hier))
	}
	c := diffcheck.PipeConfig(mask)
	if cfg != nil {
		cfg(&c)
	}
	m, err := pipeline.New(c, pm, hier)
	if err != nil {
		return err
	}
	pipeline.CrossCheckInvariants(m)
	_, err = m.Run(prog)
	return err
}

// generated returns diffcheck.Generate's program for seed.
func generated(seed int64) isa.Program {
	return diffcheck.Generate(rand.New(rand.NewSource(seed)))
}

func TestIncrementalInvariantsMatchFull(t *testing.T) {
	variants := diffcheck.CacheVariants()
	// A multi-cycle producer (MUL, DIV, a load that misses) completes
	// cycles after its issue event: only the completion mark re-tests the
	// waiting consumer on the cycle it wakes.
	for _, src := range []string{
		"mul x3, x0, x0\nadd x4, x3, x3\nhalt",
		"div x3, x0, x0\nadd x4, x3, x3\nhalt",
		"ld x3, 0x100(x0)\nadd x4, x3, x3\nhalt",
	} {
		if err := crossRun(asm.MustAssemble(src), 0, variants[0], diffcheck.InitMemory, nil); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		prog := generated(seed)
		v := variants[int(seed)%len(variants)]
		for _, mask := range crossMasks() {
			if err := crossRun(prog, mask, v, diffcheck.InitMemory, nil); err != nil {
				t.Errorf("seed %d, mask %v, %s: %v", seed, mask, v.Name, err)
			}
		}
	}

	n := 64
	if testing.Short() {
		n = 8
	}
	for _, k := range kernels.Kernels() {
		unit, err := asm.AssembleUnit(k.Source)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for _, v := range variants {
			for _, mask := range kernelMasks(n) {
				// The contract cell's machine: the kernel's memory image
				// and the taint scanner with its secrets labeled.
				st := taint.NewState()
				st.ObserveAddrs = true
				for _, s := range unit.Secrets {
					if _, err := st.DefineSecret(taint.Secret{Name: s.Name, Base: s.Base, Len: s.Len}); err != nil {
						t.Fatal(err)
					}
				}
				setTaint := func(c *pipeline.Config) { c.Taint = st }
				if err := crossRun(unit.Prog, mask, v, k.Setup, setTaint); err != nil {
					t.Errorf("%s, mask %v, %s: %v", k.Name, mask, v.Name, err)
				}
			}
		}
	}
}

// FuzzIncrementalInvariants cross-checks a generated program under any
// toggle mask and cache variant. Both checks may fail — only on the same
// cycle with the same text.
func FuzzIncrementalInvariants(f *testing.F) {
	for _, seed := range []int64{1, 7, 282} {
		for _, mask := range crossMasks() {
			f.Add(seed, uint16(mask))
		}
	}
	variants := diffcheck.CacheVariants()
	f.Fuzz(func(t *testing.T, seed int64, mask uint16) {
		m := diffcheck.ToggleMask(mask % diffcheck.AllMasks)
		v := variants[uint64(seed)%uint64(len(variants))]
		err := crossRun(generated(seed), m, v, diffcheck.InitMemory, nil)
		if errors.Is(err, pipeline.ErrCrossCheck) {
			t.Fatalf("seed %d, mask %v, %s: %v", seed, m, v.Name, err)
		}
	})
}
