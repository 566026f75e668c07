package pipeline

import (
	"math/rand"
	"strings"
	"testing"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/emu"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/obs"
	"pandora/internal/uopt"
)

func newTestMachine(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func run(t *testing.T, m *Machine, src string) Result {
	t.Helper()
	res, err := m.Run(asm.MustAssemble(src))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestStraightLineALU(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	res := run(t, m, `
		addi x1, x0, 7
		addi x2, x0, 5
		add  x3, x1, x2
		mul  x4, x1, x2
		sub  x5, x2, x1
		halt
	`)
	if got := m.Reg(3); got != 12 {
		t.Errorf("x3 = %d, want 12", got)
	}
	if got := m.Reg(4); got != 35 {
		t.Errorf("x4 = %d, want 35", got)
	}
	if got := int64(m.Reg(5)); got != -2 {
		t.Errorf("x5 = %d, want -2", got)
	}
	if res.Cycles <= 0 || res.Retired != 6 {
		t.Errorf("res = %+v, want 6 retired", res)
	}
}

func TestLoopSum(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	run(t, m, `
		addi x1, x0, 100   # i = 100
		addi x2, x0, 0     # sum
	loop:
		add  x2, x2, x1
		addi x1, x1, -1
		bne  x1, x0, loop
		halt
	`)
	if got := m.Reg(2); got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	run(t, m, `
		addi x1, x0, 0x100
		addi x2, x0, 1234
		sd   x2, 0(x1)
		ld   x3, 0(x1)      # forwarded from SQ
		addi x4, x3, 1
		halt
	`)
	if got := m.Reg(3); got != 1234 {
		t.Errorf("x3 = %d, want 1234", got)
	}
	if got := m.Reg(4); got != 1235 {
		t.Errorf("x4 = %d, want 1235", got)
	}
	if m.Stats().LoadsForwarded == 0 {
		t.Errorf("expected store-to-load forwarding, got %+v", m.Stats())
	}
	if got := m.Memory().Read(0x100, 8); got != 1234 {
		t.Errorf("mem[0x100] = %d, want 1234 (store must drain)", got)
	}
}

func TestPartialForwardReadsMemory(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	m.Memory().Write(0x200, 8, 0xffffffffffffffff)
	run(t, m, `
		addi x1, x0, 0x200
		addi x2, x0, 0
		sb   x2, 0(x1)      # clear low byte only
		ld   x3, 0(x1)      # one byte forwarded, seven from memory
		halt
	`)
	if got := m.Reg(3); got != 0xffffffffffffff00 {
		t.Errorf("x3 = %#x, want 0xffffffffffffff00", got)
	}
}

func TestByteHalfWordAccess(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	run(t, m, `
		addi x1, x0, 0x300
		addi x2, x0, -1     # 0xffff...ff
		sw   x2, 0(x1)
		lbu  x3, 0(x1)
		lb   x4, 0(x1)
		lhu  x5, 0(x1)
		lh   x6, 2(x1)
		lwu  x7, 0(x1)
		halt
	`)
	if got := m.Reg(3); got != 0xff {
		t.Errorf("lbu = %#x", got)
	}
	if got := int64(m.Reg(4)); got != -1 {
		t.Errorf("lb = %d", got)
	}
	if got := m.Reg(5); got != 0xffff {
		t.Errorf("lhu = %#x", got)
	}
	if got := int64(m.Reg(6)); got != -1 {
		t.Errorf("lh = %d", got)
	}
	if got := m.Reg(7); got != 0xffffffff {
		t.Errorf("lwu = %#x", got)
	}
}

func TestRDCYCLEMonotonic(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	run(t, m, `
		rdcycle x1
		addi x5, x0, 0
		addi x5, x5, 1
		addi x5, x5, 1
		rdcycle x2
		sub x3, x2, x1
		halt
	`)
	if int64(m.Reg(2)) <= int64(m.Reg(1)) {
		t.Errorf("rdcycle not monotonic: %d then %d", m.Reg(1), m.Reg(2))
	}
	if got := m.Reg(3); got == 0 || got > 100 {
		t.Errorf("cycle delta = %d, want small positive", got)
	}
}

func TestRDCYCLEStoreAndReload(t *testing.T) {
	// Timing values may be stored and reloaded (receiver measurement
	// pattern); taint tracking must suppress oracle verification.
	m := newTestMachine(t, DefaultConfig())
	run(t, m, `
		addi x1, x0, 0x400
		rdcycle x2
		sd   x2, 0(x1)
		fence
		ld   x3, 0(x1)
		halt
	`)
	if m.Reg(3) != m.Reg(2) {
		t.Errorf("reloaded cycle %d != stored %d", m.Reg(3), m.Reg(2))
	}
}

func TestBranchOnTimingFails(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	_, err := m.Run(asm.MustAssemble(`
		rdcycle x1
		beq x1, x0, 0
		halt
	`))
	if err == nil {
		t.Fatal("expected error for branch on RDCYCLE-derived value")
	}
}

func TestJalJalr(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	run(t, m, `
		jal x1, target
		addi x2, x0, 99    # skipped
	target:
		addi x3, x0, 42
		addi x4, x1, 0     # link register = 1
		halt
	`)
	if got := m.Reg(3); got != 42 {
		t.Errorf("x3 = %d, want 42", got)
	}
	if got := m.Reg(2); got != 0 {
		t.Errorf("x2 = %d, want 0 (skipped)", got)
	}
	if got := m.Reg(1); got != 1 {
		t.Errorf("link = %d, want 1", got)
	}
}

func TestFenceDrainsSQ(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	res := run(t, m, `
		addi x1, x0, 0x500
		addi x2, x0, 7
		sd   x2, 0(x1)
		fence
		ld   x3, 0(x1)     # after fence: must come from cache, not forwarding
		halt
	`)
	if got := m.Reg(3); got != 7 {
		t.Errorf("x3 = %d, want 7", got)
	}
	if m.Stats().LoadsForwarded != 0 {
		t.Errorf("load after fence should not forward: %+v", res.Stats)
	}
}

func TestDivByZeroMatchesRISCV(t *testing.T) {
	m := newTestMachine(t, DefaultConfig())
	run(t, m, `
		addi x1, x0, 10
		div  x2, x1, x0
		rem  x3, x1, x0
		halt
	`)
	if got := m.Reg(2); got != ^uint64(0) {
		t.Errorf("div by zero = %#x, want all ones", got)
	}
	if got := m.Reg(3); got != 10 {
		t.Errorf("rem by zero = %d, want dividend", got)
	}
}

// randProgram builds a random but guaranteed-terminating program: a
// bounded counted loop whose body is straight-line ALU and memory ops over
// a small scratch buffer.
func randProgram(rng *rand.Rand) isa.Program {
	var p isa.Program
	emit := func(in isa.Inst) { p = append(p, in) }

	// x30 = loop counter, x29 = scratch base.
	iters := int64(1 + rng.Intn(6))
	emit(isa.Inst{Op: isa.ADDI, Rd: 30, Rs1: 0, Imm: iters})
	emit(isa.Inst{Op: isa.ADDI, Rd: 29, Rs1: 0, Imm: 0x1000})
	loopStart := int64(len(p))

	body := 3 + rng.Intn(12)
	for i := 0; i < body; i++ {
		rd := isa.Reg(1 + rng.Intn(12))
		rs1 := isa.Reg(rng.Intn(13))
		rs2 := isa.Reg(rng.Intn(13))
		switch rng.Intn(10) {
		case 0, 1, 2:
			ops := []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLT, isa.SLTU}
			emit(isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: rd, Rs1: rs1, Rs2: rs2})
		case 3:
			ops := []isa.Op{isa.MUL, isa.MULH, isa.DIV, isa.REM}
			emit(isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: rd, Rs1: rs1, Rs2: rs2})
		case 4:
			ops := []isa.Op{isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLTI}
			emit(isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: rd, Rs1: rs1, Imm: int64(rng.Intn(4096) - 2048)})
		case 5:
			ops := []isa.Op{isa.SLLI, isa.SRLI, isa.SRAI}
			emit(isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: rd, Rs1: rs1, Imm: int64(rng.Intn(63))})
		case 6, 7:
			ops := []isa.Op{isa.SB, isa.SH, isa.SW, isa.SD}
			op := ops[rng.Intn(len(ops))]
			off := int64(rng.Intn(32)) * 8
			emit(isa.Inst{Op: op, Rs1: 29, Rs2: rs2, Imm: off})
		case 8:
			// Data-dependent forward branch over one or two instructions
			// (exercises BTFN prediction and redirects).
			skip := 1 + rng.Intn(2)
			bops := []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGEU}
			emit(isa.Inst{Op: bops[rng.Intn(len(bops))], Rs1: rs1, Rs2: rs2,
				Imm: int64(len(p)) + int64(skip) + 1})
			for s := 0; s < skip; s++ {
				emit(isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rd, Imm: int64(rng.Intn(64))})
			}
		default:
			ops := []isa.Op{isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.LWU, isa.LD}
			op := ops[rng.Intn(len(ops))]
			off := int64(rng.Intn(32)) * 8
			emit(isa.Inst{Op: op, Rd: rd, Rs1: 29, Imm: off})
		}
	}
	emit(isa.Inst{Op: isa.ADDI, Rd: 30, Rs1: 30, Imm: -1})
	emit(isa.Inst{Op: isa.BNE, Rs1: 30, Rs2: 0, Imm: loopStart})
	emit(isa.Inst{Op: isa.HALT})
	return p
}

// optVariants returns pipeline configurations covering every optimization
// class (the differential test must hold under all of them).
func optVariants() map[string]func() Config {
	return map[string]func() Config{
		"baseline": DefaultConfig,
		"silentstores": func() Config {
			c := DefaultConfig()
			c.SilentStores = SilentStoreConfig{Scheme: SSReadPortStealing}
			return c
		},
		"valuepred": func() Config {
			c := DefaultConfig()
			c.ValuePred = uopt.VPConfig{Scheme: uopt.VPLastValue, Threshold: 1}
			return c
		},
		"reuse-sv": func() Config {
			c := DefaultConfig()
			c.Reuse = uopt.SchemeSv
			return c
		},
		"reuse-sn": func() Config {
			c := DefaultConfig()
			c.Reuse = uopt.SchemeSn
			return c
		},
		"compsimp": func() Config {
			c := DefaultConfig()
			c.Simplifier = uopt.Simplifier{ZeroSkipMul: true, TrivialALU: true, EarlyExitDiv: true}
			return c
		},
		"packing": func() Config {
			c := DefaultConfig()
			c.Packing = true
			return c
		},
		"rfc-any": func() Config {
			c := DefaultConfig()
			c.RFC = uopt.RFCAnyValue
			c.PhysRegs = 44
			return c
		},
		"tiny": func() Config {
			c := DefaultConfig()
			c.ROBSize = 8
			c.IQSize = 4
			c.LQSize = 2
			c.SQSize = 2
			c.PhysRegs = 40
			c.FetchWidth = 1
			c.RetireWidth = 1
			c.ALUPorts = 1
			c.LoadPorts = 1
			return c
		},
		"everything": func() Config {
			c := DefaultConfig()
			c.SilentStores = SilentStoreConfig{Scheme: SSReadPortStealing, Retry: true}
			c.ValuePred = uopt.VPConfig{Scheme: uopt.VPLastValue, Threshold: 2}
			c.Reuse = uopt.SchemeSv
			c.Simplifier = uopt.Simplifier{ZeroSkipMul: true, TrivialALU: true, EarlyExitDiv: true}
			c.Packing = true
			c.RFC = uopt.RFCAnyValue
			c.PhysRegs = 48
			return c
		},
	}
}

// TestDifferentialVsEmulator is the core property test: for random
// terminating programs, under every optimization configuration, the
// pipeline's committed registers and final memory must match the
// functional emulator exactly.
func TestDifferentialVsEmulator(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 10
	}
	for name, mk := range optVariants() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < iters; i++ {
				prog := randProgram(rng)

				golden := emu.New(mem.New())
				// Pre-seed both memories identically.
				for a := uint64(0x1000); a < 0x1100; a += 8 {
					golden.Mem.Write(a, 8, a*0x9e3779b97f4a7c15)
				}
				if err := golden.Run(prog, 1_000_000); err != nil {
					t.Fatalf("iter %d: emulator: %v", i, err)
				}

				pm := mem.New()
				for a := uint64(0x1000); a < 0x1100; a += 8 {
					pm.Write(a, 8, a*0x9e3779b97f4a7c15)
				}
				m, err := New(mk(), pm, cache.MustNewHierarchy(cache.DefaultHierConfig()))
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if _, err := m.Run(prog); err != nil {
					t.Fatalf("iter %d: pipeline: %v\nprogram:\n%v", i, err, prog)
				}

				for r := isa.Reg(0); r < isa.NumRegs; r++ {
					if m.Reg(r) != golden.Regs[r] {
						t.Fatalf("iter %d: %v = %#x, emulator has %#x\nprogram:\n%v",
							i, r, m.Reg(r), golden.Regs[r], prog)
					}
				}
				for a := uint64(0x1000); a < 0x1100; a++ {
					if got, want := pm.LoadByte(a), golden.Mem.LoadByte(a); got != want {
						t.Fatalf("iter %d: mem[%#x] = %#x, emulator has %#x", i, a, got, want)
					}
				}
			}
		})
	}
}

func TestSQFullStallsRename(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SQSize = 2
	m := newTestMachine(t, cfg)
	run(t, m, `
		addi x1, x0, 0x600
		sd x0, 0(x1)
		sd x0, 64(x1)
		sd x0, 128(x1)
		sd x0, 192(x1)
		sd x0, 256(x1)
		sd x0, 320(x1)
		halt
	`)
	if m.Stats().RenameStallSQ == 0 {
		t.Errorf("expected SQ-full rename stalls, got %+v", m.Stats())
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 100
	m := newTestMachine(t, cfg)
	_, err := m.Run(asm.MustAssemble(`
	loop:
		addi x1, x1, 1
		jal x0, loop
		halt
	`))
	if err == nil {
		t.Fatal("expected MaxCycles error for infinite loop")
	}
}

// TestRenderPipeview draws a real run through the obs pipeview exporter:
// one labelled row per µop with its dispatch, issue and retire markers.
func TestRenderPipeview(t *testing.T) {
	cfg := DefaultConfig()
	tr := obs.NewTrace()
	cfg.Probe = tr
	m := newTestMachine(t, cfg)
	prog := asm.MustAssemble(`
		addi x1, x0, 7
		mul  x2, x1, x1
		sd   x2, 0x100(x0)
		halt
	`)
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tr.WritePipeview(&b, 40, func(pc int64) string { return prog[pc].String() }); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, frag := range []string{"pipeview", "D", "I", "R", "pc=0", "pc=2", prog[1].String()} {
		if !strings.Contains(out, frag) {
			t.Errorf("pipeview missing %q:\n%s", frag, out)
		}
	}
}
