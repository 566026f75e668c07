package emu_test

import (
	"testing"

	"pandora/internal/asm"
	"pandora/internal/emu"
	"pandora/internal/isa"
	"pandora/internal/mem"
)

func runSrc(t *testing.T, src string) *emu.Machine {
	t.Helper()
	m := emu.New(nil)
	if err := m.Run(asm.MustAssemble(src), 1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

func TestFibonacci(t *testing.T) {
	m := runSrc(t, `
		addi x1, x0, 0     # a
		addi x2, x0, 1     # b
		addi x3, x0, 20    # n
	loop:
		add  x4, x1, x2
		add  x1, x2, x0
		add  x2, x4, x0
		addi x3, x3, -1
		bne  x3, x0, loop
		halt
	`)
	if got := m.Regs[2]; got != 10946 {
		t.Errorf("fib(21) = %d, want 10946", got)
	}
}

func TestMemoryOps(t *testing.T) {
	m := runSrc(t, `
		addi x1, x0, 0x1000
		addi x2, x0, -1
		sd   x2, 0(x1)
		lw   x3, 0(x1)      # sign-extended
		lwu  x4, 0(x1)      # zero-extended
		sb   x0, 3(x1)
		ld   x5, 0(x1)
		halt
	`)
	if int64(m.Regs[3]) != -1 {
		t.Errorf("lw = %d", int64(m.Regs[3]))
	}
	if m.Regs[4] != 0xffffffff {
		t.Errorf("lwu = %#x", m.Regs[4])
	}
	if m.Regs[5] != 0xffffffff00ffffff {
		t.Errorf("ld after sb = %#x", m.Regs[5])
	}
}

func TestX0IsZero(t *testing.T) {
	m := runSrc(t, `
		addi x0, x0, 99
		add  x1, x0, x0
		halt
	`)
	if m.Regs[0] != 0 || m.Regs[1] != 0 {
		t.Errorf("x0 = %d, x1 = %d; both must be 0", m.Regs[0], m.Regs[1])
	}
}

func TestJalrSubroutine(t *testing.T) {
	m := runSrc(t, `
		addi x10, x0, 5
		jal  x1, double    # call
		addi x11, x10, 0   # x11 = result
		halt
	double:
		add  x10, x10, x10
		jalr x0, (x1)      # return
	`)
	if got := m.Regs[11]; got != 10 {
		t.Errorf("double(5) = %d", got)
	}
}

func TestRDCYCLEReadsRetired(t *testing.T) {
	m := runSrc(t, `
		addi x1, x0, 1
		rdcycle x2
		halt
	`)
	if m.Regs[2] != 1 {
		t.Errorf("rdcycle in emulator = %d, want retired count 1", m.Regs[2])
	}
}

func TestStepBudget(t *testing.T) {
	m := emu.New(nil)
	err := m.Run(asm.MustAssemble("loop: jal x0, loop\nhalt"), 100)
	if err != emu.ErrNoHalt {
		t.Errorf("err = %v, want ErrNoHalt", err)
	}
}

func TestPCOutOfRange(t *testing.T) {
	m := emu.New(nil)
	// Branch beyond the program end.
	prog := isa.Program{
		{Op: isa.JAL, Rd: 0, Imm: 99},
		{Op: isa.HALT},
	}
	if err := m.Run(prog, 100); err == nil {
		t.Error("expected pc-out-of-range error")
	}
}

func TestResetPreservesMemory(t *testing.T) {
	m := emu.New(mem.New())
	m.Mem.Write(0x10, 8, 42)
	m.Regs[5] = 7
	m.PC = 3
	m.Reset()
	if m.Regs[5] != 0 || m.PC != 0 {
		t.Error("Reset did not clear register state")
	}
	if m.Mem.Read(0x10, 8) != 42 {
		t.Error("Reset cleared memory")
	}
}

func TestTraceHook(t *testing.T) {
	m := emu.New(nil)
	var pcs []int64
	m.Trace = func(pc int64, in isa.Inst) { pcs = append(pcs, pc) }
	if err := m.Run(asm.MustAssemble("addi x1, x0, 1\naddi x2, x0, 2\nhalt"), 100); err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 3 || pcs[0] != 0 || pcs[2] != 2 {
		t.Errorf("trace = %v", pcs)
	}
}
