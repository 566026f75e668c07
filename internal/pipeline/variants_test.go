package pipeline

import (
	"testing"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/uopt"
)

// --- SSLSQCompare silent-store scheme ---

func lsqMachine(t *testing.T) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SilentStores = SilentStoreConfig{Scheme: SSLSQCompare}
	mm := mem.New()
	h := cache.MustNewHierarchy(cache.DefaultHierConfig())
	m, err := New(cfg, mm, h)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLSQCompareSilentPair(t *testing.T) {
	m := lsqMachine(t)
	// Two same-value stores to the same address in flight together: the
	// second is squashed by the LSQ comparison.
	run(t, m, `
		addi x1, x0, 0x800
		addi x2, x0, 7
		addi x9, x0, 1000
		div  x3, x9, x2      # delay retirement so both stores overlap
		sd   x2, 0(x1)
		sd   x2, 0(x1)
		halt
	`)
	if m.Stats().SilentStores != 1 {
		t.Errorf("SilentStores = %d, want 1 (stats %+v)", m.Stats().SilentStores, m.Stats())
	}
	if m.Stats().SSLoadsIssued != 0 {
		t.Errorf("LSQ scheme must not issue SS-Loads: %d", m.Stats().SSLoadsIssued)
	}
	if got := m.Memory().Read(0x800, 8); got != 7 {
		t.Errorf("mem = %d", got)
	}
}

func TestLSQCompareMismatchPerforms(t *testing.T) {
	m := lsqMachine(t)
	run(t, m, `
		addi x1, x0, 0x800
		addi x2, x0, 7
		addi x4, x0, 8
		addi x9, x0, 1000
		div  x3, x9, x2
		sd   x2, 0(x1)
		sd   x4, 0(x1)       # different value: must perform
		halt
	`)
	if m.Stats().SilentStores != 0 {
		t.Errorf("mismatched pair marked silent: %+v", m.Stats())
	}
	if m.Stats().NonSilentChecks != 1 {
		t.Errorf("NonSilentChecks = %d, want 1", m.Stats().NonSilentChecks)
	}
	if got := m.Memory().Read(0x800, 8); got != 8 {
		t.Errorf("mem = %d, want 8", got)
	}
}

// TestLSQCompareMissesMemoryMatch is the scheme's key limitation (and
// what distinguishes its MLD): a store matching *memory* but with no
// older in-flight store to the same address is not a candidate.
func TestLSQCompareMissesMemoryMatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SilentStores = SilentStoreConfig{Scheme: SSLSQCompare}
	mm := mem.New()
	mm.Write(0x800, 8, 7)
	h := cache.MustNewHierarchy(cache.DefaultHierConfig())
	h.Access(0x800, 7, false)
	m, err := New(cfg, mm, h)
	if err != nil {
		t.Fatal(err)
	}
	run(t, m, caseASrc) // stores 7 over 7, but no in-flight predecessor
	if m.Stats().SilentStores != 0 {
		t.Errorf("LSQ scheme detected a memory-only match: %+v", m.Stats())
	}
}

// --- Stride value predictor ---

func TestStridePredictorInPipeline(t *testing.T) {
	// A pointer chase over a regular linked list: each load's value is
	// the next load's address, so the chain serializes on the cache-miss
	// latency — unless the predictor breaks the dependence. The node
	// addresses stride by 256 bytes: last-value prediction always fails,
	// stride prediction covers every in-flight iteration.
	const (
		listBase = uint64(0x100000)
		nodeStep = uint64(256)
		nodes    = 100
	)
	src := `
		addi x1, x0, 0x100000
		addi x9, x0, 100
	loop:
		ld   x1, 0(x1)        # pointer chase
		addi x9, x9, -1
		bne  x9, x0, loop
		halt
	`
	// runWith returns the run's cycles and the machine's predictor.
	runWith := func(scheme uopt.VPScheme) (int64, valuePredictor, error) {
		cfg := DefaultConfig()
		cfg.ValuePred = uopt.VPConfig{Scheme: scheme, Threshold: 2}
		mm := mem.New()
		for n := uint64(0); n <= nodes; n++ {
			mm.Write(listBase+n*nodeStep, 8, listBase+(n+1)*nodeStep)
		}
		m, err := New(cfg, mm, cache.MustNewHierarchy(cache.DefaultHierConfig()))
		if err != nil {
			return 0, nil, err
		}
		res, err := m.Run(asm.MustAssemble(src))
		if err != nil {
			return 0, nil, err
		}
		return res.Cycles, m.vp, nil
	}

	noPred, _, err := runWith(uopt.VPOff)
	if err != nil {
		t.Fatal(err)
	}
	lvCycles, lv, err := runWith(uopt.VPLastValue)
	if err != nil {
		t.Fatal(err)
	}
	stCycles, st, err := runWith(uopt.VPStride)
	if err != nil {
		t.Fatal(err)
	}
	lastVal, stride := lv.(*uopt.Predictor), st.(*uopt.StridePredictor)
	if stride.Correct == 0 {
		t.Fatalf("stride predictor never predicted correctly: %+v", stride)
	}
	if stride.Mispredictions > stride.Correct {
		t.Errorf("stride predictor mostly wrong: %+v", stride)
	}
	if lastVal.Correct > 0 {
		t.Errorf("last-value predictor should fail on a striding value: %+v", lastVal)
	}
	// Stride prediction must substantially beat both (the chain is ~100
	// serialized misses without it; prediction starts once the predictor
	// is confident AND dispatch has caught up to training — about one
	// ROB's worth of cold-start iterations).
	if stCycles*2 >= noPred {
		t.Errorf("stride prediction did not break the chase: stride=%d baseline=%d", stCycles, noPred)
	}
	if stCycles >= lvCycles {
		t.Errorf("stride should beat last-value: stride=%d last-value=%d", stCycles, lvCycles)
	}
	t.Logf("pointer chase: baseline=%d last-value=%d stride=%d cycles", noPred, lvCycles, stCycles)
}

func TestStridePredictorUnit(t *testing.T) {
	p := uopt.NewStridePredictor(2)
	// Feed 10, 20, 30: stride 10 confirmed after three observations.
	p.Resolve(1, 10, false, 0)
	p.Resolve(1, 20, false, 0)
	if _, ok := p.Predict(1); ok {
		t.Error("prediction before threshold")
	}
	p.Resolve(1, 30, false, 0)
	p.Resolve(1, 40, false, 0)
	v, ok := p.Predict(1)
	if !ok || v != 50 {
		t.Errorf("Predict = %d, %v; want 50", v, ok)
	}
	if mis := p.Resolve(1, 50, true, v); mis {
		t.Error("correct prediction flagged as mispredict")
	}
	// Break the stride: confidence resets.
	if mis := p.Resolve(1, 99, true, 60); !mis {
		t.Error("wrong prediction not flagged")
	}
	if _, ok := p.Predict(1); ok {
		t.Error("prediction survived a stride break")
	}
}

// --- Strength reduction (Section VI-B) ---

func TestStrengthReductionLeak(t *testing.T) {
	src := func(secret int64) string {
		return `
		addi x1, x0, ` + itoa(secret) + `
		addi x2, x0, 12345
		addi x5, x0, 48
	loop:
		mul  x3, x2, x1
		mul  x3, x3, x1
		addi x5, x5, -1
		bne  x5, x0, loop
		halt
	`
	}
	runWith := func(simplify bool, secret int64) int64 {
		cfg := DefaultConfig()
		if simplify {
			cfg.Simplifier = uopt.Simplifier{StrengthReduction: true}
		}
		m := newTestMachine(t, cfg)
		res, err := m.Run(asm.MustAssemble(src(secret)))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	// Power-of-two vs non-power-of-two secret multiplier.
	pow2 := runWith(true, 64)
	odd := runWith(true, 65)
	if pow2 >= odd {
		t.Errorf("strength reduction did not speed up the power-of-two operand: %d vs %d", pow2, odd)
	}
	// Baseline: no difference.
	if a, b := runWith(false, 64), runWith(false, 65); a != b {
		t.Errorf("baseline leaks: %d vs %d", a, b)
	}
}

func TestStrengthReductionDiv(t *testing.T) {
	s := &uopt.Simplifier{StrengthReduction: true}
	if lat, ok := s.SimplifiedLatency(uopt.KindDiv, 1000, 8, 20); !ok || lat != 1 {
		t.Errorf("div by 8 not reduced: %d %v", lat, ok)
	}
	if _, ok := s.SimplifiedLatency(uopt.KindDiv, 1000, 7, 20); ok {
		t.Error("div by 7 reduced")
	}
	if _, ok := s.SimplifiedLatency(uopt.KindDiv, 8, 0, 20); ok {
		t.Error("div by zero treated as power of two")
	}
}

// --- SMT co-tenant packing attack (Section IV-B3) ---

// TestCoTenantPackingAttack: the sibling thread sets its operands narrow;
// the victim's runtime then depends precisely on whether the victim's own
// operands are narrow — with a wide-operand sibling, no signal.
func TestCoTenantPackingAttack(t *testing.T) {
	victim := func(secret int64) string {
		return `
		addi x1, x0, ` + itoa(secret) + `
		addi x2, x0, 7
		addi x9, x0, 48
	loop:
		add  x3, x1, x2
		add  x4, x1, x2
		addi x9, x9, -1
		bne  x9, x0, loop
		halt
	`
	}
	runWith := func(coA, coB uint64, secret int64) int64 {
		cfg := DefaultConfig()
		cfg.ALUPorts = 2
		cfg.Packing = true
		cfg.CoTenant = CoTenantConfig{Active: true, OperandA: coA, OperandB: coB}
		m := newTestMachine(t, cfg)
		res, err := m.Run(asm.MustAssemble(victim(secret)))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}

	// Attacker sets narrow operands: victim secret width is observable.
	narrowN := runWith(3, 9, 12)
	narrowW := runWith(3, 9, 1<<20)
	narrowGap := narrowW - narrowN
	if narrowGap <= 0 {
		t.Errorf("narrow-operand sibling sees no victim signal: %d vs %d", narrowN, narrowW)
	}
	// Attacker sets wide operands: sibling packing never fires. The
	// victim's own intra-thread packing still leaks (the passive PC
	// channel), but the sibling adds nothing to it.
	wideN := runWith(1<<30, 9, 12)
	wideW := runWith(1<<30, 9, 1<<20)
	wideGap := wideW - wideN
	if narrowGap <= wideGap {
		t.Errorf("active sibling packing did not amplify the signal: narrow-sibling gap %d, wide-sibling gap %d",
			narrowGap, wideGap)
	}
	// The sibling's port pressure is real: with it present the victim is
	// slower than running alone.
	cfg := DefaultConfig()
	cfg.ALUPorts = 2
	m := newTestMachine(t, cfg)
	res, err := m.Run(asm.MustAssemble(victim(12)))
	if err != nil {
		t.Fatal(err)
	}
	if narrowW <= res.Cycles {
		t.Errorf("co-tenant costs nothing: with=%d alone=%d", narrowW, res.Cycles)
	}
}

// --- In-order SQ dequeue ablation (DESIGN.md key design choice #1) ---

// TestSQDequeueAblation: the amplification gadget's end-to-end signal
// depends on in-order SQ dequeue (head-of-line blocking). With
// out-of-order dequeue, trailing stores slip past the blocked target and
// the refill hides under independent work — the gap collapses.
func TestSQDequeueAblation(t *testing.T) {
	kernel := func(storeVal int64) string {
		return `
			addi x1, x0, 0x4040   # &delay cell
			addi x3, x0, 0x800    # &target
			addi x6, x0, ` + itoa(storeVal) + `
			ld   x4, 0(x1)        # delay gadget
			ld   x5, 0(x4)        # flush gadget (8 lines of the L2 set)
			ld   x7, 0x4000(x4)
			ld   x8, 0x8000(x4)
			ld   x9, 0xc000(x4)
			ld   x10, 0x10000(x4)
			ld   x11, 0x14000(x4)
			ld   x12, 0x18000(x4)
			ld   x13, 0x1c000(x4)
			sd   x6, 0(x3)        # target store
			sd   x6, 64(x3)       # trailing stores to warm, distinct lines
			sd   x6, 128(x3)
			sd   x6, 192(x3)
			sd   x6, 256(x3)
			sd   x6, 320(x3)
			addi x20, x0, 3       # long independent work after the store burst
			addi x21, x0, 7
			addi x22, x0, 40
		work:
			mul  x21, x21, x20
			mul  x21, x21, x20
			addi x22, x22, -1
			bne  x22, x0, work
			halt
		`
	}
	run := func(ooo bool, storeVal int64) int64 {
		cfg := DefaultConfig()
		cfg.SilentStores = SilentStoreConfig{Scheme: SSReadPortStealing}
		cfg.SQSize = 5
		cfg.SQOutOfOrderDequeue = ooo
		hcfg := cache.DefaultHierConfig()
		hcfg.L1.Ways = 1
		mm := mem.New()
		mm.Write(0x800, 8, 7)
		mm.Write(0x4040, 8, 0x800+0x4000)
		h := cache.MustNewHierarchy(hcfg)
		h.Access(0x800, 7, false)
		for n := 1; n <= 5; n++ {
			a := uint64(0x800 + n*64)
			mm.Write(a, 8, int64ToU(storeVal))
			h.Access(a, 0, false) // trailing lines warm
		}
		m := MustNew(cfg, mm, h)
		res, err := m.Run(asm.MustAssemble(kernel(storeVal)))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}

	inOrderGap := run(false, 8) - run(false, 7)
	oooGap := run(true, 8) - run(true, 7)
	if inOrderGap < 50 {
		t.Errorf("in-order dequeue gap = %d, want the amplified signal", inOrderGap)
	}
	if oooGap*4 > inOrderGap {
		t.Errorf("out-of-order dequeue did not collapse the signal: ooo=%d in-order=%d",
			oooGap, inOrderGap)
	}
	t.Logf("amplification gap: in-order dequeue %d cycles, out-of-order %d cycles", inOrderGap, oooGap)
}

func int64ToU(v int64) uint64 { return uint64(v) }
