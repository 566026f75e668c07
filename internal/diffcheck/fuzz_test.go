package diffcheck

import (
	"testing"

	"pandora/internal/cache"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
)

// decodeProgram turns arbitrary fuzz bytes into a terminating program that
// follows the generator's register convention: a fixed prologue (bases +
// loop counter), a body decoded three bytes per instruction from a menu of
// safe shapes, and the counted-loop epilogue. Every input decodes to a
// comparable case — the fuzzer explores instruction mixes, not encodings.
func decodeProgram(data []byte) isa.Program {
	var p isa.Program
	emit := func(in isa.Inst) { p = append(p, in) }
	emit(isa.Inst{Op: isa.ADDI, Rd: loopReg, Imm: 2})
	emit(isa.Inst{Op: isa.ADDI, Rd: baseA, Imm: regionA})
	emit(isa.Inst{Op: isa.ADDI, Rd: baseB, Imm: regionB})
	emit(isa.Inst{Op: isa.LUI, Rd: baseFar, Imm: regionFar >> 12})
	loopStart := int64(len(p))

	bases := []isa.Reg{baseA, baseB, baseFar}
	for i := 0; i+2 < len(data) && i < 3*48; i += 3 {
		sel, b1, b2 := data[i], data[i+1], data[i+2]
		rd := isa.Reg(1 + b1%genRegHi)
		rs1 := isa.Reg(b1 % (genRegHi + 1)) // may be x0
		rs2 := isa.Reg(b2 % (genRegHi + 1))
		base := bases[b2%3]
		off := int64(b2%(regionSpan/8-1)) * 8
		switch sel % 10 {
		case 0:
			ops := []isa.Op{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLT, isa.SLTU, isa.SLL, isa.SRL, isa.SRA}
			emit(isa.Inst{Op: ops[b1%byte(len(ops))], Rd: rd, Rs1: rs1, Rs2: rs2})
		case 1:
			ops := []isa.Op{isa.MUL, isa.MULH, isa.DIV, isa.REM}
			emit(isa.Inst{Op: ops[b1%byte(len(ops))], Rd: rd, Rs1: rs1, Rs2: rs2})
		case 2:
			ops := []isa.Op{isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLTI}
			emit(isa.Inst{Op: ops[b1%byte(len(ops))], Rd: rd, Rs1: rs1, Imm: int64(b2) - 128})
		case 3:
			ops := []isa.Op{isa.SLLI, isa.SRLI, isa.SRAI}
			emit(isa.Inst{Op: ops[b1%byte(len(ops))], Rd: rd, Rs1: rs1, Imm: int64(b2 % 63)})
		case 4:
			ops := []isa.Op{isa.SB, isa.SH, isa.SW, isa.SD}
			emit(isa.Inst{Op: ops[b1%byte(len(ops))], Rs1: base, Rs2: rs2, Imm: off})
		case 5:
			ops := []isa.Op{isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.LWU, isa.LD}
			emit(isa.Inst{Op: ops[b1%byte(len(ops))], Rd: rd, Rs1: base, Imm: off})
		case 6:
			// Silent-store pair.
			emit(isa.Inst{Op: isa.LD, Rd: rd, Rs1: base, Imm: off})
			emit(isa.Inst{Op: isa.SD, Rs1: base, Rs2: rd, Imm: off})
		case 7:
			// Forward branch over one instruction.
			bops := []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}
			emit(isa.Inst{Op: bops[b1%byte(len(bops))], Rs1: rs1, Rs2: rs2, Imm: int64(len(p)) + 2})
			emit(isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rd, Imm: int64(b2 % 64)})
		case 8:
			// ADDI feeding a load: the fusion shape.
			emit(isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: base, Imm: off})
			emit(isa.Inst{Op: isa.LD, Rd: isa.Reg(1 + b2%genRegHi), Rs1: rd})
		default:
			emit(isa.Inst{Op: isa.FENCE})
		}
	}
	emit(isa.Inst{Op: isa.ADDI, Rd: loopReg, Rs1: loopReg, Imm: -1})
	emit(isa.Inst{Op: isa.BNE, Rs1: loopReg, Imm: loopStart})
	emit(isa.Inst{Op: isa.HALT})
	return p
}

// FuzzDifferential feeds decoded programs to the same pipeline-vs-emulator
// oracle the sweep uses; any divergence is a crasher.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 1, 2, 4, 10, 20, 5, 3, 7, 6, 9, 1, 7, 40, 40}, uint16(AllMasks-1))
	f.Add([]byte{6, 0, 0, 4, 0, 0, 9, 0, 0, 5, 0, 0}, uint16(TogSilentStores|TogFuse))
	f.Add([]byte{0, 1, 2, 4, 10, 20, 5, 3, 7, 6, 9, 1, 7, 40, 40}, uint16(TogSpec|TogStLF))
	variants := CacheVariants()
	f.Fuzz(func(t *testing.T, data []byte, sel uint16) {
		c := Case{Name: "fuzz", Prog: decodeProgram(data), Init: InitMemory}
		mask := ToggleMask(sel % AllMasks)
		v := variants[int(sel)%len(variants)]
		if d := RunCase(c, mask, v, nil); d != nil {
			t.Fatalf("divergence under toggles=%v cache=%s: %v\nprogram: %v", mask, v.Name, d, c.Prog)
		}
	})
}

// FuzzSchedulerEquivalence runs each decoded program on a fresh machine
// under the reference linear scheduler and under the event-driven readyW
// scheduler, invariant checks on, and requires the same Result — cycle
// count, retired count and every Stats counter — and the same error, if
// any. TestSchedulerEquivalence diffs the full event stream over a fixed
// corpus; this target lets the fuzzer pick the instruction mixes.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{8, 3, 1, 8, 5, 2, 0, 1, 2, 5, 0, 0}, uint16(TogFuse))
	f.Add([]byte{5, 2, 0, 0, 3, 1, 6, 1, 1, 7, 3, 9, 1, 6, 6}, uint16(TogPredictor))
	f.Add([]byte{0, 1, 2, 4, 10, 20, 5, 3, 7, 6, 9, 1, 7, 40, 40}, uint16(TogSpec|TogStLF))
	f.Add([]byte{0, 1, 2, 4, 10, 20, 5, 3, 7, 6, 9, 1, 7, 40, 40, 8, 1, 1}, uint16(AllMasks-1))
	f.Fuzz(func(t *testing.T, data []byte, sel uint16) {
		prog := decodeProgram(data)
		mask := ToggleMask(sel % AllMasks)
		var res [2]pipeline.Result
		var errs [2]string
		for i, linear := range []bool{true, false} {
			cfg := PipeConfig(mask)
			cfg.LinearScheduler = linear
			mm := mem.New()
			InitMemory(mm)
			m, err := pipeline.New(cfg, mm, cache.MustNewHierarchy(cache.DefaultHierConfig()))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res[i], err = m.Run(prog)
			errs[i] = errText(err)
		}
		if res[0] != res[1] || errs[0] != errs[1] {
			t.Fatalf("toggles=%v: schedulers diverge\nlinear: %+v err=%s\nreadyW: %+v err=%s\nprogram: %v",
				mask, res[0], errs[0], res[1], errs[1], prog)
		}
	})
}

// FuzzCacheHierarchy drives a tiny hierarchy, self-checking or not,
// through byte-directed access/prefetch/evict sequences. When the high
// bit of data[0] is clear the run is benign, exactly the original menu,
// and both checks must stay clean over the whole sequence for every
// geometry, including non-power-of-two TreePLRU way counts. When it is
// set, seeded corruption is interleaved — an L1 tag flip, L1
// replacement-state damage, and a line dropped from L2 alone — and the
// checks must stay clean until an operation really breaks an invariant.
// In both modes the incremental CheckChanged must return exactly what
// the full-sweep CheckInvariants returns after every operation.
func FuzzCacheHierarchy(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{5, 3, 255, 254, 253, 10, 11, 12, 13, 14, 15, 16})
	// Byte pairs after the two config bytes are (op, address). data[0]%3
	// picks L1's policy and data[1]%3 L2's; 0x80 in data[0] enables the
	// corruptions and 0x40 turns SelfCheck off. Ops (mod 16): 0 and 8
	// prefetch, 1 and 9 EvictAll, 10 a tag flip, 11 replacement damage,
	// 12 an L2-only evict; everything else is an access.
	f.Add([]byte{1, 4, 5, 1, 0, 2, 5, 3, 9, 1, 5, 5, 8, 6, 5, 1, 6, 7, 1, 3})
	f.Add([]byte{0x81, 7, 5, 1, 5, 2, 10, 7, 5, 3, 12, 2, 5, 4, 11, 9})
	f.Add([]byte{0x82, 5, 5, 1, 5, 2, 11, 1, 5, 3, 12, 1, 5, 4, 10, 6, 5, 5})
	f.Add([]byte{0xc2, 3, 5, 1, 5, 2, 11, 3, 5, 3, 10, 9, 5, 4})
	f.Add([]byte{0x80, 2, 6, 4, 7, 12, 8, 20, 12, 4, 11, 8, 5, 4, 5, 12, 10, 0, 5, 20, 20, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		policies := []cache.Policy{cache.LRU, cache.TreePLRU, cache.Random}
		cfg := cache.HierConfig{
			L1: cache.Config{Name: "L1D", Sets: 2, Ways: 1 + int(data[0]%8), LineSize: 64,
				HitLatency: 1, Policy: policies[data[0]%3], Seed: 7},
			L2: cache.Config{Name: "L2", Sets: 4, Ways: 1 + int(data[1]%8), LineSize: 64,
				HitLatency: 4, Policy: policies[data[1]%3], Seed: 11},
			MemLatency: 20,
			SelfCheck:  data[0]&0x40 == 0,
		}
		h, err := cache.NewHierarchy(cfg)
		if err != nil {
			t.Skip() // geometry rejected by construction-time validation
		}
		corrupting := data[0]&0x80 != 0
		corrupted := false
		for i := 2; i+1 < len(data) && i < 2+2*256; i += 2 {
			addr := uint64(data[i+1]) << 6
			seed := int64(data[i+1]) * 0x9e3779b9
			switch op := data[i] % 16; {
			case op%8 == 0:
				h.Prefetch(addr)
			case op%8 == 1:
				h.EvictAll(addr)
			case op == 10 && corrupting:
				// The flipped tag bit is far above any address here, so
				// the line is no longer backed by L2.
				corrupted = h.CorruptL1Line(seed) || corrupted
			case op == 11 && corrupting:
				// A TreePLRU bit flip leaves legal state; a pushed-ahead
				// LRU/Random timestamp does not.
				broke := h.CorruptL1Replacement(seed) && cfg.L1.Policy != cache.TreePLRU
				corrupted = broke || corrupted
			case op == 12 && corrupting:
				// Dropping a line from L2 alone orphans it only if L1
				// still holds it.
				broke := h.L2.Evict(addr) && h.L1.Contains(addr)
				corrupted = broke || corrupted
			default:
				h.Access(addr, uint64(i), data[i]%2 == 0)
			}
			if err := h.InvariantError(); err != nil && !corrupted {
				t.Fatalf("op %d: %v", i, err)
			}
			full := h.CheckInvariants()
			if !corrupted && full != nil {
				t.Fatalf("op %d: uncorrupted hierarchy: %v", i, full)
			}
			if inc := h.CheckChanged(); errText(inc) != errText(full) {
				t.Fatalf("op %d: incremental check %q, full sweep %q", i, errText(inc), errText(full))
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
