// Package uopt implements the microarchitectural optimization components
// studied by the paper as self-contained, pipeline-independent pieces of
// logic: computation simplification, pipeline (operand) compression,
// computation reuse, value prediction, and register-file compression
// value tracking. The out-of-order core (package pipeline) wires these
// into its stages; silent stores and the data memory-dependent prefetcher
// live in the pipeline and package dmp respectively because they are
// inseparable from the store queue and cache hierarchy.
//
// Every component here is deterministic. Simplification and packing are
// pure functions of operand values; the stateful tables (reuse buffer,
// value predictors, value file) belong to the pipeline machine, which
// builds and clears them on Reset. The attacker-visible events they cause
// are counted in pipeline.Stats.
package uopt

import "math/bits"

// Simplifier implements computation simplification (Section IV-B1):
// instructions whose operand values satisfy certain conditions execute in
// fewer cycles (or are eliminated). The three modeled techniques:
//
//   - ZeroSkipMul: a multiply with a zero operand skips the multiplier
//     array (Figure 2, Example 2).
//   - TrivialALU: trivial identities (x+0, x*1, x&0, x|~0, x^0, shifts by
//     zero, x-x, ...) bypass the functional unit [Yi & Lilja, ICCD'02].
//   - EarlyExitDiv: digit-serial division retires early when the quotient
//     is narrow — latency grows with the significant-bit gap between
//     dividend and divisor [Coppens et al., S&P'09 observed the attack].
//
// A Simplifier is a plain value: its zero value simplifies nothing.
type Simplifier struct {
	ZeroSkipMul  bool
	TrivialALU   bool
	EarlyExitDiv bool

	// StrengthReduction converts multiplies with a power-of-two operand
	// into shifts (and divisions by powers of two likewise) — the
	// continuous-optimization example the paper's Section VI-B singles
	// out as a security issue, because the reduction manifests as a
	// function of a specific operand's value beyond control flow.
	StrengthReduction bool
}

// divBitsPerCycle is the radix of the early-exit divider: how many
// quotient bits retire per cycle (a radix-4 divider).
const divBitsPerCycle = 2

// Enabled reports whether any technique is on.
func (s Simplifier) Enabled() bool { return s != Simplifier{} }

// SimplifiedLatency returns the latency for an ALU-family op with operand
// values a and b, given the op's default latency, and whether a fast path
// applied. The op kinds are communicated through the ALUKind enum so this
// package does not depend on package isa.
func (s Simplifier) SimplifiedLatency(kind ALUKind, a, b uint64, def int) (int, bool) {
	switch kind {
	case KindMul:
		if s.ZeroSkipMul && (a == 0 || b == 0) {
			return 1, true
		}
		if s.TrivialALU && (a == 1 || b == 1) {
			return 1, true
		}
		if s.StrengthReduction && (isPow2(a) || isPow2(b)) {
			return 1, true // a shift
		}
	case KindDiv:
		if s.TrivialALU && (b == 1 || a == 0) {
			return 1, true
		}
		if s.StrengthReduction && isPow2(b) {
			return 1, true // a shift
		}
		if s.EarlyExitDiv {
			// A digit-serial divider processes the quotient most-
			// significant digit first and exits once its bits run out.
			qbits := max(bits.Len64(a)-bits.Len64(b), 0)
			if lat := 2 + (qbits+divBitsPerCycle-1)/divBitsPerCycle; lat < def {
				return lat, true
			}
		}
	case KindSimple:
		if s.TrivialALU && trivialSimple(a, b) {
			return 1, true
		}
	}
	return def, false
}

// isPow2 reports whether v is a positive power of two.
func isPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// trivialSimple reports whether a simple ALU operation with these operand
// values is trivially computable. The check is operand-based (either
// operand zero), matching the "early detection and bypassing of trivial
// operations" schemes; it intentionally over-approximates per-op identities
// because the hardware detector keys on operand values, not opcodes.
func trivialSimple(a, b uint64) bool {
	return a == 0 || b == 0
}

// ALUKind classifies operations for the simplifier.
type ALUKind uint8

const (
	// KindSimple covers single-cycle integer ops (add/and/or/xor/shift/...).
	KindSimple ALUKind = iota
	// KindMul covers multiplies.
	KindMul
	// KindDiv covers divides and remainders.
	KindDiv
)

func (k ALUKind) String() string {
	switch k {
	case KindSimple:
		return "simple"
	case KindMul:
		return "mul"
	case KindDiv:
		return "div"
	}
	return "kind?"
}
