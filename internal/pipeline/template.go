package pipeline

import "pandora/internal/isa"

// uopTemplate is the decoded, immutable-per-program half of a µop: every
// fact derivable from the instruction and its PC alone. Fetch used to
// re-derive all of this (opcode-switch by opcode-switch) for every dynamic
// instance of every instruction, millions of times per run; now decode
// happens once per Run per PC and fetch just stamps the per-dynamic-
// instance fields into a pooled uop struct.
//
// What may live here: opcode class, register names, immediate handling,
// memory width, the static BTFN direction prediction (a pure function of
// opcode and target vs. PC). What may NOT live here: anything that depends
// on the dynamic instance — oracle results, operand values, addresses,
// taint labels, timing. Those stay on the uop.
type uopTemplate struct {
	inst  isa.Inst
	pc    int64
	class isa.Class

	// Renaming facts.
	dest       isa.Reg // X0 when the instruction writes no register
	writesReg  bool
	src1, src2 isa.Reg // from Uses(); X0 means "no producer tracking"

	// immSrc2 marks ALU-family immediate forms whose second operand is the
	// immediate (readSources' substitution rule); immVal is the pre-cast
	// value.
	immSrc2 bool
	immVal  uint64

	memWidth int // loads/stores

	// Static BTFN direction prediction (branches): backward targets are
	// predicted taken. alwaysRedirect marks JALR, which has no BTB and
	// always blocks fetch.
	predictedTaken bool
	alwaysRedirect bool
}

// prepareProgram (re)builds the decoded-template cache for prog. It runs
// once per Machine.Run: O(len(prog)) scalar work against millions of
// simulated cycles, and allocation-free once the scratch has grown to the
// largest program seen. Rebuilding unconditionally (rather than keying on
// the slice identity) means in-place program mutation between Runs can
// never serve stale µops.
func (m *Machine) prepareProgram(prog isa.Program) {
	if cap(m.tmpl) < len(prog) {
		m.tmpl = make([]uopTemplate, len(prog))
	}
	m.tmpl = m.tmpl[:len(prog)]
	for pc := range prog {
		in := prog[pc]
		t := &m.tmpl[pc]
		cl := isa.ClassOf(in.Op)
		dest := in.Writes()
		s1, s2 := in.Uses()
		*t = uopTemplate{
			inst:      in,
			pc:        int64(pc),
			class:     cl,
			dest:      dest,
			writesReg: dest != isa.X0,
			src1:      s1,
			src2:      s2,
			memWidth:  isa.MemWidth(in.Op),
		}
		switch cl {
		case isa.ClassALU, isa.ClassMul, isa.ClassDiv, isa.ClassCSR:
			if isa.HasImm(in.Op) {
				t.immSrc2 = true
				t.immVal = uint64(in.Imm)
			}
		case isa.ClassBranch:
			t.predictedTaken = in.Imm <= int64(pc)
		case isa.ClassJump:
			t.alwaysRedirect = in.Op == isa.JALR
		}
	}
}
