package diffcheck

import (
	"encoding/binary"
	"math/rand"

	"pandora/internal/isa"
	"pandora/internal/mem"
)

// Generated programs follow one register convention so the generator can
// compose freely without liveness analysis: x1..x12 are scratch
// destinations, x26/x27/x29 hold region base addresses and are never
// written by the body, x28 is reserved for emit-time JALR targets, x30 is
// the loop counter, and RDCYCLE is never emitted — its value legitimately
// differs between the emulator and the pipeline, and the harness compares
// complete final state.
const (
	genRegHi   = 12     // scratch destinations are x1..genRegHi
	baseA      = 29     // region A base register
	baseB      = 27     // region B base register
	baseFar    = 26     // far-region base register (distinct L2 sets)
	jalrTmp    = 28     // JALR target staging register
	loopReg    = 30     // loop counter
	regionA    = 0x1000 // 512-byte scratch region
	regionB    = 0x2000 // second region, other cache sets
	regionFar  = 0x80000
	regionSpan = 512
)

// InitMemory seeds the three scratch regions with a deterministic
// address-derived pattern; generated programs read and write inside them.
func InitMemory(m *mem.Memory) {
	var img [regionSpan]byte
	for _, base := range []uint64{regionA, regionB, regionFar} {
		for off := 0; off < regionSpan; off += 8 {
			a := base + uint64(off)
			binary.LittleEndian.PutUint64(img[off:], a*0x9e3779b97f4a7c15)
		}
		m.StoreBytes(base, img[:])
	}
}

// ScratchRegions returns the base addresses and span of the scratch
// regions InitMemory seeds and generated programs access, for harnesses
// (like the taint fuzzer) that pick sub-ranges of them as secrets.
func ScratchRegions() (bases []uint64, span uint64) {
	return []uint64{regionA, regionB, regionFar}, regionSpan
}

// Generate builds a random but guaranteed-terminating program: a counted
// loop whose body mixes ALU, multiply/divide, loads and stores of every
// width over three scratch regions, forward branches, JAL/JALR with
// emit-time-resolved targets, FENCE, and silent-store pairs. Termination
// is by construction — the only backward edge is the loop bound — so every
// generated program is comparable against the emulator.
func Generate(rng *rand.Rand) isa.Program {
	var p isa.Program
	emit := func(in isa.Inst) { p = append(p, in) }

	scratch := func() isa.Reg { return isa.Reg(1 + rng.Intn(genRegHi)) }
	src := func() isa.Reg { return isa.Reg(rng.Intn(genRegHi + 1)) } // may be x0
	base := func() isa.Reg {
		switch rng.Intn(4) {
		case 0:
			return baseB
		case 1:
			return baseFar
		default:
			return baseA
		}
	}
	off := func() int64 { return int64(rng.Intn(regionSpan/8-1)) * 8 }

	iters := int64(1 + rng.Intn(6))
	emit(isa.Inst{Op: isa.ADDI, Rd: loopReg, Imm: iters})
	emit(isa.Inst{Op: isa.ADDI, Rd: baseA, Imm: regionA})
	emit(isa.Inst{Op: isa.ADDI, Rd: baseB, Imm: regionB})
	emit(isa.Inst{Op: isa.LUI, Rd: baseFar, Imm: regionFar >> 12})
	loopStart := int64(len(p))

	body := 4 + rng.Intn(16)
	for i := 0; i < body; i++ {
		rd, rs1, rs2 := scratch(), src(), src()
		switch rng.Intn(14) {
		case 0, 1:
			ops := []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLT, isa.SLTU, isa.SLL, isa.SRL, isa.SRA}
			emit(isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: rd, Rs1: rs1, Rs2: rs2})
		case 2:
			ops := []isa.Op{isa.MUL, isa.MULH, isa.DIV, isa.REM}
			emit(isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: rd, Rs1: rs1, Rs2: rs2})
		case 3:
			ops := []isa.Op{isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLTI}
			emit(isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: rd, Rs1: rs1, Imm: int64(rng.Intn(4096) - 2048)})
		case 4:
			ops := []isa.Op{isa.SLLI, isa.SRLI, isa.SRAI}
			emit(isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: rd, Rs1: rs1, Imm: int64(rng.Intn(63))})
		case 5:
			emit(isa.Inst{Op: isa.LUI, Rd: rd, Imm: int64(rng.Intn(1 << 20))})
		case 6, 7:
			ops := []isa.Op{isa.SB, isa.SH, isa.SW, isa.SD}
			emit(isa.Inst{Op: ops[rng.Intn(len(ops))], Rs1: base(), Rs2: rs2, Imm: off()})
		case 8:
			// Silent-store pair: store a location's own value back (the
			// second store is architecturally invisible — exactly what the
			// silent-store logic elides; the harness checks it still
			// reaches memory correctly when the elision is wrong).
			b, o := base(), off()
			emit(isa.Inst{Op: isa.LD, Rd: rd, Rs1: b, Imm: o})
			emit(isa.Inst{Op: isa.SD, Rs1: b, Rs2: rd, Imm: o})
		case 9:
			ops := []isa.Op{isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.LWU, isa.LD}
			emit(isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: rd, Rs1: base(), Imm: off()})
		case 10:
			// ADDI immediately feeding a load: the µ-op fusion shape.
			b, o := base(), off()
			emit(isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: b, Imm: o})
			emit(isa.Inst{Op: isa.LD, Rd: scratch(), Rs1: rd})
		case 11:
			// Forward conditional branch over one or two instructions.
			skip := 1 + rng.Intn(2)
			bops := []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}
			emit(isa.Inst{Op: bops[rng.Intn(len(bops))], Rs1: rs1, Rs2: rs2,
				Imm: int64(len(p)) + int64(skip) + 1})
			for s := 0; s < skip; s++ {
				emit(isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rd, Imm: int64(rng.Intn(64))})
			}
		case 12:
			// Forward JAL or JALR with an emit-time-computed absolute
			// target. JALR always redirects fetch in the pipeline.
			skip := 1 + rng.Intn(2)
			if rng.Intn(2) == 0 {
				emit(isa.Inst{Op: isa.JAL, Rd: rd, Imm: int64(len(p)) + int64(skip) + 1})
			} else {
				target := int64(len(p)) + int64(skip) + 2
				emit(isa.Inst{Op: isa.ADDI, Rd: jalrTmp, Imm: target})
				emit(isa.Inst{Op: isa.JALR, Rd: rd, Rs1: jalrTmp})
			}
			for s := 0; s < skip; s++ {
				emit(isa.Inst{Op: isa.XORI, Rd: rd, Rs1: rd, Imm: 1})
			}
		default:
			emit(isa.Inst{Op: isa.FENCE})
		}
	}
	emit(isa.Inst{Op: isa.ADDI, Rd: loopReg, Rs1: loopReg, Imm: -1})
	emit(isa.Inst{Op: isa.BNE, Rs1: loopReg, Imm: loopStart})
	emit(isa.Inst{Op: isa.HALT})
	return p
}
