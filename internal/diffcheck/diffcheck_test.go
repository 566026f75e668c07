package diffcheck

import (
	"context"
	"math/rand"
	"testing"

	"pandora/internal/isa"
	"pandora/internal/parallel"
	"pandora/internal/pipeline"
	"pandora/internal/uopt"
)

func TestToggleMaskString(t *testing.T) {
	for mask, want := range map[ToggleMask]string{
		0:                         "none",
		TogSilentStores:           "ss",
		TogSilentStores | TogFuse: "ss+fu",
		TogPredictor | TogRFC:     "vp+rfc",
		TogSpec | TogStLF:         "sp+sf",
		AllMasks - 1:              "ss+vp+ru+cs+pk+rfc+fu+sp+sf",
	} {
		if got := mask.String(); got != want {
			t.Errorf("ToggleMask(%#x) = %q, want %q", uint16(mask), got, want)
		}
	}
}

func TestPipeConfigToggles(t *testing.T) {
	off := PipeConfig(0)
	if off.SilentStores.Scheme != pipeline.SSOff || off.ValuePred.Scheme != uopt.VPOff || off.Reuse != uopt.ReuseOff ||
		off.Simplifier.Enabled() || off.Packing || off.RFC != uopt.RFCOff || off.FuseAddiLoad {
		t.Errorf("mask 0 enabled an optimization: %+v", off)
	}
	if !off.CheckInvariants {
		t.Error("harness configs must have invariant checking on")
	}
	if off.Speculation != (pipeline.SpeculationConfig{}) || off.StoreAddrLat != 0 {
		t.Errorf("mask 0 enabled speculation: %+v", off)
	}
	on := PipeConfig(AllMasks - 1)
	if on.SilentStores.Scheme != pipeline.SSReadPortStealing || on.ValuePred.Scheme == uopt.VPOff || on.Reuse == uopt.ReuseOff ||
		!on.Simplifier.Enabled() || !on.Packing || on.RFC != uopt.RFCAnyValue || !on.FuseAddiLoad {
		t.Errorf("full mask left an optimization off: %+v", on)
	}
	if !on.Speculation.WrongPath || !on.Speculation.StLF || on.StoreAddrLat != 4 {
		t.Errorf("full mask left speculation off: %+v", on.Speculation)
	}
	if sf := PipeConfig(TogStLF); !sf.Speculation.StLF || sf.Speculation.WrongPath {
		t.Errorf("TogStLF alone misconfigured: %+v", sf.Speculation)
	}
}

// TestPipeConfigComparable: a mask's configuration is a plain value, so two
// builds of one mask compare equal and distinct masks compare unequal.
func TestPipeConfigComparable(t *testing.T) {
	for m := ToggleMask(0); m < AllMasks; m++ {
		if PipeConfig(m) != PipeConfig(m) {
			t.Fatalf("PipeConfig(%v) differs from itself", m)
		}
		if m > 0 && PipeConfig(m) == PipeConfig(m-1) {
			t.Fatalf("PipeConfig(%v) equals PipeConfig(%v)", m, m-1)
		}
	}
}

func TestFixturesCleanUnderExtremes(t *testing.T) {
	variants := CacheVariants()
	for _, c := range Fixtures() {
		for _, mask := range []ToggleMask{0, AllMasks - 1} {
			for _, v := range variants {
				if d := RunCase(c, mask, v, nil); d != nil {
					t.Errorf("%s under toggles=%v cache=%s: %v", c.Name, mask, v.Name, d)
				}
			}
		}
	}
}

func TestQuickSweepClean(t *testing.T) {
	rep, err := Check(context.Background(), Options{Programs: 24, MasksPerProgram: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("sweep diverged:\n%s", rep)
	}
	// 3 scheduled masks + 1 random per case.
	if min := rep.Programs * 4; rep.Runs < min {
		t.Errorf("Runs = %d, want >= %d", rep.Runs, min)
	}
}

// TestQuickScheduleCoversSpeculation pins the CI contract of the
// rotating-mask stride: even the 64-program CI corpus (`check -n 64`) must run
// deterministic masks with each speculation toggle set, not just reach
// them through the all-on extreme and random draws.
func TestQuickScheduleCoversSpeculation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var spec, stlf int
	for i := 0; i < 64; i++ {
		rotating := masksFor(i, 0, rng)[2]
		if rotating&TogSpec != 0 {
			spec++
		}
		if rotating&TogStLF != 0 {
			stlf++
		}
	}
	if spec == 0 || stlf == 0 {
		t.Errorf("64-case rotating schedule: %d masks with sp, %d with sf; want both > 0", spec, stlf)
	}
}

// TestRegressionReplayedMispredictWrongPath is the minimized repro of the
// first divergence the widened (speculative) mask space surfaced: a value
// predictor squash requeues a mispredicted loop branch together with its
// correct-path successors; on re-dispatch the branch re-entered wrong-path
// mode, and the harness's invariant checker flagged the correct-path
// replays dispatched behind it ("correct-path µop younger than unresolved
// mispredicted branch"). Replayed mispredicts must take the legacy
// redirect stall instead of restarting wrong-path fetch.
func TestRegressionReplayedMispredictWrongPath(t *testing.T) {
	prog := isa.Program{
		{Op: isa.ADDI, Rd: 30, Rs1: 0, Imm: 5},
		{Op: isa.LUI, Rd: 26, Imm: 128},
		{Op: isa.SD, Rs1: 29, Rs2: 6, Imm: 440},
		{Op: isa.LD, Rd: 2, Rs1: 26, Imm: 368},
		{Op: isa.SD, Rs1: 26, Rs2: 2, Imm: 368},
		{Op: isa.ADDI, Rd: 30, Rs1: 30, Imm: -1},
		{Op: isa.BNE, Rs1: 30, Imm: 2},
		{Op: isa.HALT},
	}
	c := Case{Name: "replayed-mispredict", Prog: prog, Init: InitMemory}
	for _, v := range CacheVariants() {
		for _, mask := range []ToggleMask{
			AllMasks - 1,
			TogPredictor | TogSpec,
			TogPredictor | TogSpec | TogStLF,
		} {
			if d := RunCase(c, mask, v, nil); d != nil {
				t.Errorf("toggles=%v cache=%s: %v", mask, v.Name, d)
			}
		}
	}
}

func TestInjectedBugCaughtAndMinimized(t *testing.T) {
	rep, err := Check(context.Background(), Options{
		Programs: 64, MasksPerProgram: 1, Seed: 1,
		Subject: BugSRAAsSRL, SkipFixtures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("injected SRA-as-SRL bug not caught")
	}
	f := rep.Failures[0]
	if len(f.Repro) == 0 || len(f.Repro) > 10 {
		t.Fatalf("repro not minimized to <=10 instructions (%d):\n%s", len(f.Repro), rep)
	}
	// The minimized repro must itself still diverge, and only under the bug.
	c := Case{Name: "repro", Prog: f.Repro, Init: InitMemory}
	v := CacheVariants()[0]
	if RunCase(c, f.Mask, v, BugSRAAsSRL) == nil {
		t.Error("minimized repro no longer diverges under the injected bug")
	}
	if d := RunCase(c, f.Mask, v, nil); d != nil {
		t.Errorf("minimized repro diverges without the bug: %v", d)
	}
}

func TestRemoveRangeRenumbersTargets(t *testing.T) {
	prog := isa.Program{
		{Op: isa.ADDI, Rd: 1, Rs1: 0, Imm: 1}, // 0
		{Op: isa.BEQ, Rs1: 0, Rs2: 0, Imm: 3}, // 1: target past the removal
		{Op: isa.ADDI, Rd: 2, Rs1: 2, Imm: 1}, // 2: removed
		{Op: isa.JAL, Rd: 0, Imm: 2},          // 3: target inside the removal -> clamps
		{Op: isa.HALT},                        // 4
	}
	out := removeRange(prog, 2, 1)
	if len(out) != 4 {
		t.Fatalf("len = %d", len(out))
	}
	if out[1].Imm != 2 {
		t.Errorf("branch target = %d, want 2", out[1].Imm)
	}
	if out[2].Imm != 2 {
		t.Errorf("jal target = %d, want clamped 2", out[2].Imm)
	}
	if out[0].Imm != 1 || out[3].Op != isa.HALT {
		t.Errorf("unrelated instructions disturbed: %v", out)
	}
}

func TestMinimizeKeepsFailing(t *testing.T) {
	// Predicate: program still contains an SRA. Minimize must shrink to a
	// program that still satisfies it.
	rng := rand.New(rand.NewSource(9))
	var c Case
	for {
		c = Case{Name: "m", Prog: Generate(rng), Init: InitMemory}
		if hasOp(c.Prog, isa.SRA) || hasOp(c.Prog, isa.SRAI) {
			break
		}
	}
	fails := func(cand Case) bool { return hasOp(cand.Prog, isa.SRA) || hasOp(cand.Prog, isa.SRAI) }
	min := Minimize(c, fails)
	if !fails(min) {
		t.Fatal("minimized case no longer fails the predicate")
	}
	if len(min.Prog) >= len(c.Prog) {
		t.Errorf("no shrink: %d -> %d instructions", len(c.Prog), len(min.Prog))
	}
}

func hasOp(p isa.Program, op isa.Op) bool {
	for _, in := range p {
		if in.Op == op {
			return true
		}
	}
	return false
}

// TestSpecDataThroughStoreForward is the regression for a spurious
// branch divergence (check -seed 9, gen-0325): a store whose data came
// from an unverified speculative forward was then forwarded normally to
// a younger load, which dropped the speculative mark. A branch on that
// load computed the wrong direction and failed the oracle check before
// the older forward's retire-time replay could squash it. The load must
// inherit the store's speculative-data mark. The reported failure needs
// reuse on too (ss+ru+sf); both masks run on every cache variant.
func TestSpecDataThroughStoreForward(t *testing.T) {
	rng := rand.New(rand.NewSource(parallel.Seed(9, 325)))
	c := Case{Name: "gen-0325", Prog: Generate(rng), Init: InitMemory}
	for _, mask := range []ToggleMask{TogSilentStores | TogStLF, TogSilentStores | TogReuse | TogStLF} {
		for _, v := range CacheVariants() {
			if div := RunCase(c, mask, v, nil); div != nil {
				t.Errorf("mask %v cache %s: %v", mask, v.Name, div)
			}
		}
	}
}
