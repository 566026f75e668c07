package kernels

import (
	"context"
	"fmt"
	"testing"

	"pandora/internal/asm"
	"pandora/internal/diffcheck"
	"pandora/internal/emu"
	"pandora/internal/mem"
)

// TestKernelReferenceOutputs runs every kernel on the functional
// emulator and verifies its outputs against the Go reference
// implementation of the primitive (Check): the kernels compute real
// crypto, not plausible-looking arithmetic.
func TestKernelReferenceOutputs(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			unit, err := k.assemble()
			if err != nil {
				t.Fatal(err)
			}
			m := mem.New()
			k.Setup(m)
			mc := emu.New(m)
			if err := mc.Run(unit.Prog, 1_000_000); err != nil {
				t.Fatalf("emulator: %v", err)
			}
			if err := k.Check(m); err != nil {
				t.Fatalf("reference mismatch: %v", err)
			}
		})
	}
}

// TestKernelBaselineVerdicts scans every kernel on the baseline machine
// (mask 0, default cache) under the base contract: the constant-time
// kernels must be spotless, the table-lookup AES must leak through its
// access addresses — and nothing else.
func TestKernelBaselineVerdicts(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			sum, err := runScenario(context.Background(), k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if k.ConstantTime {
				if sum.Total != 0 {
					t.Fatalf("designed constant-time but recorded %d leak events: %+v", sum.Total, sum.ByClass)
				}
				return
			}
			if !sum.HasLeak("cache-addr", "state") {
				t.Fatalf("table lookup must leak state through cache-addr; got %+v", sum.ByClass)
			}
			for _, bc := range sum.ByClass {
				if bc.Opt != "cache-addr" {
					t.Errorf("unexpected baseline class %q", bc.Opt)
				}
			}
		})
	}
}

// TestKernelSecretsLabeled asserts every kernel declares at least one
// .secret region and that the assembler accepts the generated source.
func TestKernelSecretsLabeled(t *testing.T) {
	for _, k := range Kernels() {
		unit, err := asm.AssembleUnit(k.Source)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if len(unit.Secrets) == 0 {
			t.Fatalf("%s: no .secret region", k.Name)
		}
	}
}

// TestEnumerateDeterministic checks the acceptance bar for the report
// over the full kernel library × the rotating mask schedule (the
// baseline, every optimization alone, everything at once) × two cache
// geometries: the marshalled bytes are identical at 1 worker and at 8,
// and the verdicts the library is designed around appear in the report
// — the constant-time kernels clean at mask 0, the table-lookup AES
// leaking through cache addresses, silent stores breaking the cswap and
// computation simplification breaking ChaCha and bitslice AES.
func TestEnumerateDeterministic(t *testing.T) {
	masks := []diffcheck.ToggleMask{0}
	for bit := diffcheck.ToggleMask(1); bit < diffcheck.AllMasks; bit <<= 1 {
		masks = append(masks, bit)
	}
	masks = append(masks, diffcheck.AllMasks-1)
	opt := Options{
		Masks:    masks,
		Variants: []string{"default-lru", "tiny-plru-pow2"},
	}
	opt.Workers = 1
	rep1, err := Enumerate(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	rep8, err := Enumerate(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := rep1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b8, err := rep8.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b8) {
		t.Fatalf("report differs between 1 and 8 workers:\n%s\n----\n%s", b1, b8)
	}

	byName := map[string]KernelReport{}
	for _, k := range rep1.Kernels {
		byName[k.Kernel] = k
	}
	hasClass := func(kernel, class string) bool {
		for _, c := range byName[kernel].Classes {
			if c.Class == class {
				return true
			}
		}
		return false
	}
	if len(byName) != len(Kernels()) {
		t.Fatalf("report covers %d kernels, want %d", len(byName), len(Kernels()))
	}
	for _, k := range Kernels() {
		want := "clean"
		if !k.ConstantTime {
			want = "leaks"
		}
		if got := byName[k.Name].BaselineVerdict; got != want {
			t.Errorf("%s baseline verdict %q, want %q", k.Name, got, want)
		}
	}
	for _, tc := range []struct{ kernel, class string }{
		{"aes-ttable", "cache-addr"},
		{"montladder-cswap", "silent-store"},
		{"chacha20-qr", "comp-simplification"},
		{"bsaes-sbox", "comp-simplification"},
	} {
		if !hasClass(tc.kernel, tc.class) {
			t.Errorf("%s: no %s class in report (classes %+v)", tc.kernel, tc.class, byName[tc.kernel].Classes)
		}
	}
}

// TestValidateNames pins the selection semantics: empty means all, in
// library order; order of the request does not matter; unknown names
// error.
func TestValidateNames(t *testing.T) {
	all, err := ValidateNames(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(Kernels()) {
		t.Fatalf("got %d names, want %d", len(all), len(Kernels()))
	}
	sub, err := ValidateNames([]string{"bsaes-sbox", "chacha20-qr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0] != "chacha20-qr" || sub[1] != "bsaes-sbox" {
		t.Fatalf("library order not imposed: %v", sub)
	}
	if _, err := ValidateNames([]string{"no-such-kernel"}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestKnownOptimizationLeaks pins the headline Table-I cells: silent
// stores break the branchless cswap, and computation simplification
// breaks even the bitslice AES and ChaCha kernels.
func TestKnownOptimizationLeaks(t *testing.T) {
	cases := []struct {
		kernel string
		mask   diffcheck.ToggleMask
		class  string
	}{
		{"montladder-cswap", diffcheck.TogSilentStores, "silent-store"},
		{"chacha20-qr", diffcheck.TogSimplifier, "comp-simplification"},
		{"bsaes-sbox", diffcheck.TogSimplifier, "comp-simplification"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-%s", tc.kernel, tc.class), func(t *testing.T) {
			k, ok := KernelByName(tc.kernel)
			if !ok {
				t.Fatalf("kernel %q missing", tc.kernel)
			}
			sum, err := Run(context.Background(), k, diffcheck.PipeConfig(tc.mask), baselineHier(), false, tc.mask.String())
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, bc := range sum.ByClass {
				if bc.Opt == tc.class {
					found = true
				}
			}
			if !found {
				t.Fatalf("expected %s leak under mask %s; got %+v", tc.class, tc.mask, sum.ByClass)
			}
		})
	}
}
