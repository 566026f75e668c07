package kernels

import (
	"fmt"
	"math/big"

	"pandora/internal/mem"
)

// Poly1305 accumulation step: h = (h + m) · r mod 2¹³⁰−5, in the
// classical 5×26-bit limb representation (Bernstein; the donna/stdlib
// layout). With 26-bit limbs every partial product fits a 64-bit
// register — h·2⁶⁴ never materializes — so the whole step is
// straight-line mul/add/shift/mask arithmetic on fixed addresses: a
// constant-time kernel with genuinely secret-dependent multiplier
// operands, exactly the shape zero-skip multipliers and value
// predictors break.
//
// Memory image (all little-endian 64-bit words):
//
//	0x1000  h[0..4]  secret accumulator limbs
//	0x1100  r[0..4]  secret clamped key limbs
//	0x1180  s[1..4]  secret 5·r[1..4] (precomputed, as in every
//	                 production implementation)
//	0x1200  m[0..4]  public message-block limbs (2¹²⁸ pad bit applied)
//	0x2280  out h'[0..4]

const (
	polyHAddr   = 0x1000
	polyRAddr   = 0x1100
	polySAddr   = 0x1180
	polyMAddr   = 0x1200
	polyOutAddr = 0x2280
)

// Test vector: the first block of the RFC 8439 §2.5.2 example.
var (
	polyR = [16]byte{ // clamped r from key "85d6be78..."
		0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33,
		0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5, 0x06, 0xa8,
	}
	polyMsg = [16]byte{ // "Cryptographic Fo"
		'C', 'r', 'y', 'p', 't', 'o', 'g', 'r',
		'a', 'p', 'h', 'i', 'c', ' ', 'F', 'o',
	}
	// polyH0 is a nonzero accumulator so the step exercises the h+m
	// path (mid-message state rather than the first block's zero).
	polyH0 = [5]uint64{0x2031337, 0x1ffffff, 0x0abcdef, 0x3000001, 0x0000042}
)

const poly26Mask = (1 << 26) - 1

// polyClampR applies the RFC 8439 clamp to the little-endian r bytes.
func polyClampR(r [16]byte) [16]byte {
	r[3] &= 15
	r[7] &= 15
	r[11] &= 15
	r[15] &= 15
	r[4] &= 252
	r[8] &= 252
	r[12] &= 252
	return r
}

// polyLimbs splits a 130-bit little-endian value (16 bytes + pad bit)
// into five 26-bit limbs.
func polyLimbs(b [16]byte, padBit bool) [5]uint64 {
	le := func(off, n int) uint64 {
		var v uint64
		for i := 0; i < n; i++ {
			v |= uint64(b[off+i]) << (8 * i)
		}
		return v
	}
	l0 := le(0, 8)
	l1 := le(8, 8)
	var out [5]uint64
	out[0] = l0 & poly26Mask
	out[1] = (l0 >> 26) & poly26Mask
	out[2] = ((l0 >> 52) | (l1 << 12)) & poly26Mask
	out[3] = (l1 >> 14) & poly26Mask
	out[4] = l1 >> 40
	if padBit {
		out[4] |= 1 << 24
	}
	return out
}

// polyP is 2¹³⁰−5.
func polyP() *big.Int {
	p := new(big.Int).Lsh(big.NewInt(1), 130)
	return p.Sub(p, big.NewInt(5))
}

// polyJoin reassembles 26-bit-weighted limbs into an integer. Limbs may
// carry unpropagated excess (the kernel's output is partially reduced,
// like every production implementation's inner loop), so the join is a
// weighted sum, not a bit-concatenation.
func polyJoin(l [5]uint64) *big.Int {
	v := new(big.Int)
	for i := 4; i >= 0; i-- {
		v.Lsh(v, 26)
		v.Add(v, new(big.Int).SetUint64(l[i]))
	}
	return v
}

// polyRefStep is the math/big reference: ((h + m) · r) mod 2¹³⁰−5.
func polyRefStep(h, r, m [5]uint64) *big.Int {
	hv := polyJoin(h)
	hv.Add(hv, polyJoin(m))
	hv.Mul(hv, polyJoin(r))
	return hv.Mod(hv, polyP())
}

// polySrc generates the accumulation step: 19 loads, the 25-term
// schoolbook product with the 5·r folding, one carry chain, 5 stores.
// Registers: h in x5–x9, r in x10–x14, s=5r in x15–x18, d accumulators
// in x20–x24, scratch x25–x26, bases x27–x29, mask x30.
func polySrc() string {
	var b []byte
	emit := func(s string, args ...any) { b = append(b, []byte(fmt.Sprintf(s, args...))...) }
	emit(".secret %#x, 40, h\n", polyHAddr)
	emit(".secret %#x, 40, r\n", polyRAddr)
	emit(".secret %#x, 32, s\n", polySAddr)
	emit("	li   x27, %#x\n", polyHAddr)
	emit("	li   x28, %#x\n", polyRAddr)
	emit("	li   x29, %#x\n", polyMAddr)
	for i := 0; i < 5; i++ {
		emit("	ld   x%d, %d(x27)\n", 5+i, 8*i)
	}
	for i := 0; i < 5; i++ {
		emit("	ld   x%d, %d(x28)\n", 10+i, 8*i)
	}
	emit("	li   x27, %#x\n", polySAddr) // reuse h base for s
	for i := 1; i < 5; i++ {
		emit("	ld   x%d, %d(x27)\n", 14+i, 8*(i-1))
	}
	// h += m (public message limbs)
	for i := 0; i < 5; i++ {
		emit("	ld   x25, %d(x29)\n", 8*i)
		emit("	add  x%d, x%d, x25\n", 5+i, 5+i)
	}
	// d[j] = Σ_i h[i]·(i<=j ? r[j-i] : s[5+j-i])  — the mod-p folding:
	// limb products past 2^130 wrap with weight 5, absorbed into s=5r.
	reg := func(i int) string { return fmt.Sprintf("x%d", i) }
	for j := 0; j < 5; j++ {
		d := reg(20 + j)
		first := true
		for i := 0; i < 5; i++ {
			var mulsrc string
			if i <= j {
				mulsrc = reg(10 + (j - i)) // r[j-i]
			} else {
				mulsrc = reg(14 + (5 + j - i)) // s[5+j-i]
			}
			if first {
				emit("	mul  %s, %s, %s\n", d, reg(5+i), mulsrc)
				first = false
			} else {
				emit("	mul  x25, %s, %s\n", reg(5+i), mulsrc)
				emit("	add  %s, %s, x25\n", d, d)
			}
		}
	}
	// Carry propagation back to 26-bit limbs (one extra fold of the
	// top carry with weight 5, then a final h0 -> h1 carry).
	emit("	li   x30, %#x\n", poly26Mask)
	for j := 0; j < 4; j++ {
		emit("	srli x25, x%d, 26\n", 20+j)
		emit("	and  x%d, x%d, x30\n", 20+j, 20+j)
		emit("	add  x%d, x%d, x25\n", 21+j, 21+j)
	}
	emit("	srli x25, x24, 26\n")
	emit("	and  x24, x24, x30\n")
	emit("	slli x26, x25, 2\n") // c*5 = c*4 + c
	emit("	add  x25, x25, x26\n")
	emit("	add  x20, x20, x25\n")
	emit("	srli x25, x20, 26\n")
	emit("	and  x20, x20, x30\n")
	emit("	add  x21, x21, x25\n")
	emit("	li   x29, %#x\n", polyOutAddr)
	for j := 0; j < 5; j++ {
		emit("	sd   x%d, %d(x29)\n", 20+j, 8*j)
	}
	emit("	halt\n")
	return string(b)
}

func poly1305Accumulate() Kernel {
	r := polyLimbs(polyClampR(polyR), false)
	m := polyLimbs(polyMsg, true)
	// The modulus and the reference result are constants, computed once
	// here rather than in every run's Check; Check only reads them.
	p, want := polyP(), polyRefStep(polyH0, r, m)
	return Kernel{
		Name:         "poly1305-acc",
		Title:        "Poly1305 h = (h+m)·r mod 2¹³⁰−5 accumulation step (RFC 8439)",
		ConstantTime: true,
		Source:       polySrc(),
		Setup: func(mm *mem.Memory) {
			for i := 0; i < 5; i++ {
				mm.Write(polyHAddr+uint64(8*i), 8, polyH0[i])
				mm.Write(polyRAddr+uint64(8*i), 8, r[i])
				mm.Write(polyMAddr+uint64(8*i), 8, m[i])
			}
			for i := 1; i < 5; i++ {
				mm.Write(polySAddr+uint64(8*(i-1)), 8, 5*r[i])
			}
		},
		Check: func(mm *mem.Memory) error {
			var out [5]uint64
			for i := 0; i < 5; i++ {
				out[i] = mm.Read(polyOutAddr+uint64(8*i), 8)
			}
			got := polyJoin(out)
			got.Mod(got, p)
			if got.Cmp(want) != 0 {
				return fmt.Errorf("h' ≡ %#x, want %#x (limbs %#x)", got, want, out)
			}
			return nil
		},
	}
}
