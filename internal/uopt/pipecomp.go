package uopt

import "math/bits"

// Operand packing is pipeline compression in the form of arithmetic-unit
// operand packing [Brooks & Martonosi, HPCA'99] (Section IV-B2, Figure 3
// Example 4): two pending single-cycle integer operations whose operands
// are all narrow (at most narrowBits significant bits) can share one
// execution port in the same cycle. The observable outcome is a
// throughput difference that depends on the operand *values* of
// in-flight instructions — including a victim's, when an SMT sibling
// supplies the second instruction.

// narrowBits is the significance threshold of the paper's example.
const narrowBits = 16

// CanPack reports whether two instructions with the given operand values
// may share one ALU port. This is the MLD of Figure 3, Example 4: the
// outcome is a single bit, a conjunction over the four operands'
// significance (all four are narrow exactly when their OR is).
func CanPack(a0, a1, b0, b1 uint64) bool {
	return bits.Len64(a0|a1|b0|b1) <= narrowBits
}
