package pipeline

import (
	"testing"

	"pandora/internal/cache"
	"pandora/internal/faults"
	"pandora/internal/mem"
	"pandora/internal/taint"
)

func specConfig(mut func(*SpeculationConfig)) Config {
	cfg := DefaultConfig()
	cfg.CheckInvariants = true
	if mut != nil {
		mut(&cfg.Speculation)
	}
	return cfg
}

// wrongPathKernel takes a forward conditional branch that static BTFN
// predicts not-taken, so the fall-through — a load and an ALU op — is
// fetched down the wrong path every time and must be squashed without
// an architectural trace.
const wrongPathKernel = `
	addi x1, x0, 1
	lui  x2, 2
	bne  x1, x0, skip   # taken forward branch: BTFN mispredicts
	ld   x3, 0(x2)      # wrong path: real cache access, no retirement
	addi x4, x0, 99     # wrong path
skip:
	addi x6, x0, 7
	halt
`

func TestWrongPathFetchAndSquash(t *testing.T) {
	m := newTestMachine(t, specConfig(func(sp *SpeculationConfig) { sp.WrongPath = true }))
	res := run(t, m, wrongPathKernel)
	if res.Stats.WrongPathFetched == 0 {
		t.Error("no wrong-path µops fetched")
	}
	if res.Stats.MispredictSquashes != 1 {
		t.Errorf("MispredictSquashes = %d, want 1", res.Stats.MispredictSquashes)
	}
	if got := m.Reg(3); got != 0 {
		t.Errorf("x3 = %d, want 0 (wrong-path load must not commit)", got)
	}
	if got := m.Reg(4); got != 0 {
		t.Errorf("x4 = %d, want 0 (wrong-path ALU op must not commit)", got)
	}
	if got := m.Reg(6); got != 7 {
		t.Errorf("x6 = %d, want 7", got)
	}
	if m.specBranch != nil || m.wrongPathN != 0 {
		t.Error("wrong-path mode still active after run")
	}
}

// TestWrongPathOffBitIdentical pins the inertness claim: with Speculation
// nil the same program produces the same architectural state and cycle
// count as before the speculation code existed (the fetchBlocked stall
// path), and no speculation counters move.
func TestWrongPathOffBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckInvariants = true
	m := newTestMachine(t, cfg)
	res := run(t, m, wrongPathKernel)
	if res.Stats.WrongPathFetched != 0 || res.Stats.MispredictSquashes != 0 {
		t.Errorf("speculation counters moved without a Speculation config: %+v", res.Stats)
	}
	if res.Stats.BranchMispredicts == 0 {
		t.Error("the kernel's branch should still count as mispredicted")
	}
	if got := m.Reg(6); got != 7 {
		t.Errorf("x6 = %d, want 7", got)
	}
}

// TestWrongPathLoadWarmsCache is the microarchitectural residue the
// speculative-vectorization channel rides on: a squashed wrong-path load
// still installs its line, so a later correct-path access to the same
// line hits. The kernel's probe load is measurably faster with wrong-path
// fetch enabled — and the architectural results are identical.
func TestWrongPathLoadWarmsCache(t *testing.T) {
	kernel := `
		addi x1, x0, 1
		addi x8, x0, 1
		div  x9, x8, x8     # delay chain: keep the branch unresolved
		div  x9, x9, x8
		div  x9, x9, x8
		div  x9, x9, x8
		div  x9, x9, x8
		div  x9, x9, x8
		div  x9, x9, x8
		div  x9, x9, x8
		lui  x2, 2
		bne  x9, x0, skip   # taken forward branch, resolves late
		ld   x3, 0(x2)      # wrong path: warms line 0x2000
		jal  x0, done
	skip:
		ld   x7, 0(x2)      # probe: hits iff the wrong path ran
	done:
		halt
	`
	cycles := func(spec bool) int64 {
		cfg := DefaultConfig()
		cfg.CheckInvariants = true
		if spec {
			cfg.Speculation = SpeculationConfig{WrongPath: true}
		}
		m := newTestMachine(t, cfg)
		res := run(t, m, kernel)
		if got := m.Reg(3); got != 0 {
			t.Errorf("spec=%v: x3 = %d, want 0", spec, got)
		}
		return res.Cycles
	}
	on, off := cycles(true), cycles(false)
	if on >= off {
		t.Errorf("probe load not warmed by squashed wrong-path access: %d cycles with speculation, %d without", on, off)
	}
}

// TestBimodalLearnsBranch contrasts the trained bimodal table against
// static BTFN on a loop whose body takes a forward branch every
// iteration: BTFN mispredicts every instance, the 2-bit counters only the
// first few.
func TestBimodalLearnsBranch(t *testing.T) {
	kernel := `
		addi x1, x0, 40
	loop:
		beq  x0, x0, skip   # always-taken forward branch
		addi x5, x5, 1      # never executes
	skip:
		addi x1, x1, -1
		bne  x1, x0, loop
		halt
	`
	mispredicts := func(bimodal bool) uint64 {
		m := newTestMachine(t, specConfig(func(sp *SpeculationConfig) {
			sp.WrongPath = true
			sp.Bimodal = bimodal
		}))
		res := run(t, m, kernel)
		if got := m.Reg(5); got != 0 {
			t.Errorf("bimodal=%v: x5 = %d, want 0", bimodal, got)
		}
		if got := m.Reg(1); got != 0 {
			t.Errorf("bimodal=%v: x1 = %d, want 0", bimodal, got)
		}
		return res.Stats.BranchMispredicts
	}
	static, trained := mispredicts(false), mispredicts(true)
	if static < 40 {
		t.Errorf("static BTFN mispredicted %d times, want >= 40", static)
	}
	if trained >= static/2 {
		t.Errorf("bimodal mispredicted %d times, static %d — table did not learn", trained, static)
	}
}

// TestStuckPredictorFault checks the structural stuck-predictor site:
// with training frozen, the bimodal table never leaves its initial
// not-taken state and mispredicts like an untrained one.
func TestStuckPredictorFault(t *testing.T) {
	kernel := `
		addi x1, x0, 40
	loop:
		beq  x0, x0, skip
		addi x5, x5, 1
	skip:
		addi x1, x1, -1
		bne  x1, x0, loop
		halt
	`
	run_ := func(stuck bool) uint64 {
		cfg := specConfig(func(sp *SpeculationConfig) { sp.WrongPath = true; sp.Bimodal = true })
		var inj *faults.Injector
		if stuck {
			inj = faults.NewInjector(&faults.Plan{Site: faults.SiteStuckPredictor})
			cfg.Faults = inj
		}
		m := newTestMachine(t, cfg)
		res := run(t, m, kernel)
		if stuck && !inj.Fired() {
			t.Error("stuck-predictor fault never fired")
		}
		return res.Stats.BranchMispredicts
	}
	healthy, stuck := run_(false), run_(true)
	if stuck <= healthy*2 {
		t.Errorf("stuck predictor mispredicted %d times vs healthy %d — training was not frozen", stuck, healthy)
	}
}

// TestMispredictStormFault checks the transient storm site on the
// plain non-speculative pipeline: correctly predicted branches are forced
// to mispredict, costing BranchPenalty each, with identical architectural
// results.
func TestMispredictStormFault(t *testing.T) {
	kernel := `
		addi x1, x0, 30
		addi x2, x0, 0
	loop:
		add  x2, x2, x1
		addi x1, x1, -1
		bne  x1, x0, loop
		halt
	`
	run_ := func(storm bool) (int64, uint64, uint64) {
		cfg := DefaultConfig()
		cfg.CheckInvariants = true
		var inj *faults.Injector
		if storm {
			inj = faults.NewInjector(&faults.Plan{Site: faults.SiteMispredictStorm, TriggerCycle: 5, Count: 4})
			cfg.Faults = inj
		}
		m := newTestMachine(t, cfg)
		res := run(t, m, kernel)
		if got := m.Reg(2); got != 465 {
			t.Errorf("storm=%v: sum = %d, want 465", storm, got)
		}
		if storm && !inj.Fired() {
			t.Error("mispredict storm never fired")
		}
		return res.Cycles, res.Stats.BranchMispredicts, res.Stats.Retired
	}
	cClean, mClean, rClean := run_(false)
	cStorm, mStorm, rStorm := run_(true)
	if rClean != rStorm {
		t.Errorf("retired %d vs %d — the storm changed architectural behavior", rClean, rStorm)
	}
	if mStorm != mClean+4 {
		t.Errorf("BranchMispredicts = %d with storm, want %d", mStorm, mClean+4)
	}
	if cStorm <= cClean {
		t.Errorf("storm run took %d cycles vs %d clean — forced mispredicts cost nothing", cStorm, cClean)
	}
}

// stlfKernel trains the forwarding predictor on a same-address
// store→load pair, then moves the store aside on the final iteration: the
// confident speculative forward latches the wrong value and retire must
// replay. The store data changes every iteration so the mis-forwarded
// value can never accidentally match memory.
const stlfKernel = `
	lui  x10, 3         # buffer base 0x3000
	addi x11, x0, 6     # loop counter
	addi x12, x0, 81    # store data (changes every iteration)
loop:
	slti x16, x11, 2    # 1 only on the final iteration
	slli x17, x16, 3
	add  x18, x10, x17  # store address: base, or base+8 at the end
	sd   x12, 0(x18)
	ld   x13, 0(x10)    # load always reads the base
	addi x12, x12, 7
	addi x11, x11, -1
	bne  x11, x0, loop
	halt
`

func stlfConfig() Config {
	cfg := specConfig(func(sp *SpeculationConfig) { sp.StLF = true })
	// A slow store AGU opens the window where the load's sources are ready
	// but the older store's address is not — the forwarding predictor's
	// habitat.
	cfg.StoreAddrLat = 6
	return cfg
}

func TestSpecForwardTrainsAndReplays(t *testing.T) {
	m := newTestMachine(t, stlfConfig())
	res := run(t, m, stlfKernel)
	if res.Stats.SpecForwards == 0 {
		t.Error("forwarding predictor never forwarded speculatively")
	}
	if res.Stats.SpecForwardReplays == 0 {
		t.Error("the final-iteration address swap did not force a replay")
	}
	// Architectural check: the last iteration's load must see the value
	// iteration 2 stored at the base (81 + 4*7), not the diverted store.
	if got := m.Reg(13); got != 109 {
		t.Errorf("x13 = %d, want 109 (replayed load must read the true memory value)", got)
	}
	if got := m.Reg(11); got != 0 {
		t.Errorf("x11 = %d, want 0", got)
	}
}

// TestSpecForwardCorrectPath: when the predicted forward is right (the
// addresses do match), there is no replay and the forwarded value is the
// architectural one.
func TestSpecForwardCorrectPath(t *testing.T) {
	kernel := `
		lui  x10, 3
		addi x11, x0, 8
		addi x12, x0, 5
	loop:
		sd   x12, 0(x10)    # constant data: every forward source agrees
		ld   x13, 0(x10)
		add  x14, x14, x13
		addi x11, x11, -1
		bne  x11, x0, loop
		halt
	`
	m := newTestMachine(t, stlfConfig())
	res := run(t, m, kernel)
	if res.Stats.SpecForwards == 0 {
		t.Error("no speculative forwards on a perfectly forwardable loop")
	}
	if res.Stats.SpecForwardReplays != 0 {
		t.Errorf("SpecForwardReplays = %d, want 0 (every forward was correct)", res.Stats.SpecForwardReplays)
	}
	if got := m.Reg(14); got != 40 {
		t.Errorf("x14 = %d, want 40", got)
	}
}

// TestSpecForwardOffBitIdentical: with StLF disabled the same
// slow-store-AGU kernel runs with zero speculative forwards and the same
// architectural results.
func TestSpecForwardOffBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckInvariants = true
	cfg.StoreAddrLat = 6
	m := newTestMachine(t, cfg)
	res := run(t, m, stlfKernel)
	if res.Stats.SpecForwards != 0 || res.Stats.SpecForwardReplays != 0 {
		t.Errorf("StLF counters moved without the predictor: %+v", res.Stats)
	}
	if got := m.Reg(13); got != 109 {
		t.Errorf("x13 = %d, want 109", got)
	}
}

// TestSpecForwardTaintObserved wires a taint state in and checks both new
// observers: the speculative forward of secret-derived store data fires
// OptSpecForward, and a wrong-path load with a secret-derived address
// fires OptWrongPath — even though the load is squashed.
func TestSpecForwardTaintObserved(t *testing.T) {
	cfg := stlfConfig()
	st := taint.NewState()
	cfg.Taint = st
	memory := mem.New()
	memory.Write(0x7100, 8, 5)
	if _, err := st.DefineSecret(taint.Secret{Name: "s", Base: 0x7100, Len: 8}); err != nil {
		t.Fatalf("DefineSecret: %v", err)
	}
	m := newTestMachineMem(t, cfg, memory)
	// The stored data is secret-derived, so every speculative forward of
	// it must be observed.
	run(t, m, `
		addi x28, x0, 0x7100
		ld   x26, 0(x28)    # secret
		lui  x10, 3
		addi x11, x0, 6
	loop:
		sd   x26, 0(x10)    # tainted store data
		ld   x13, 0(x10)
		addi x11, x11, -1
		bne  x11, x0, loop
		halt
	`)
	if n := st.Rec.CountOf(taint.OptSpecForward); n == 0 {
		t.Error("no OptSpecForward events for tainted speculative forwards")
	}
}

func TestWrongPathLoadTaintObserved(t *testing.T) {
	cfg := specConfig(func(sp *SpeculationConfig) { sp.WrongPath = true })
	st := taint.NewState()
	cfg.Taint = st
	memory := mem.New()
	memory.Write(0x7100, 8, 1)
	if _, err := st.DefineSecret(taint.Secret{Name: "s", Base: 0x7100, Len: 8}); err != nil {
		t.Fatalf("DefineSecret: %v", err)
	}
	m := newTestMachineMem(t, cfg, memory)
	run(t, m, `
		addi x28, x0, 0x7100
		ld   x1, 0(x28)     # secret
		slli x2, x1, 6
		lui  x3, 2
		add  x2, x2, x3     # secret-derived address
		addi x8, x0, 1
		div  x9, x8, x8     # delay the branch resolution
		div  x9, x9, x8
		div  x9, x9, x8
		div  x9, x9, x8
		div  x9, x9, x8
		div  x9, x9, x8
		div  x9, x9, x8
		div  x9, x9, x8
		bne  x9, x0, skip   # taken forward branch: wrong path below
		ld   x5, 0(x2)      # squashed load, tainted address
		jal  x0, done
	skip:
		addi x6, x0, 1
	done:
		halt
	`)
	if n := st.Rec.CountOf(taint.OptWrongPath); n == 0 {
		t.Error("no OptWrongPath events for the squashed tainted-address load")
	}
	if got := m.Reg(5); got != 0 {
		t.Errorf("x5 = %d, want 0 (the leaking load must not commit)", got)
	}
}

// TestSquashInvariants runs a mispredict-heavy mixed kernel with the
// invariant checker on and both speculation features enabled — every
// cycle after every squash must satisfy the post-squash consistency
// checks (wrong-path discipline, forwarding consistency, refcounts).
func TestSquashInvariants(t *testing.T) {
	kernel := `
		addi x1, x0, 25
		lui  x10, 3
		addi x12, x0, 9
	loop:
		sd   x12, 0(x10)
		ld   x13, 0(x10)
		beq  x13, x12, t1   # always taken forward: mispredicts until trained
		addi x20, x20, 1
	t1:
		add  x14, x14, x13
		addi x12, x12, 5
		addi x1, x1, -1
		bne  x1, x0, loop
		halt
	`
	m := newTestMachine(t, func() Config {
		cfg := specConfig(func(sp *SpeculationConfig) {
			sp.WrongPath = true
			sp.Bimodal = true
			sp.StLF = true
		})
		cfg.StoreAddrLat = 4
		return cfg
	}())
	res := run(t, m, kernel)
	if got := m.Reg(20); got != 0 {
		t.Errorf("x20 = %d, want 0", got)
	}
	if res.Stats.WrongPathFetched == 0 {
		t.Error("kernel never went down the wrong path")
	}
}

// TestSpeculationConfigValidate rejects an out-of-range wrong-path cap.
func TestSpeculationConfigValidate(t *testing.T) {
	for _, mut := range []func(*SpeculationConfig){
		func(sp *SpeculationConfig) { sp.MaxWrongPath = -2 },
	} {
		cfg := specConfig(mut)
		if _, err := New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig())); err == nil {
			t.Error("invalid SpeculationConfig accepted")
		}
	}
}

func newTestMachineMem(t *testing.T, cfg Config, memory *mem.Memory) *Machine {
	t.Helper()
	m, err := New(cfg, memory, cache.MustNewHierarchy(cache.DefaultHierConfig()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}
