package kernels

import (
	"fmt"

	"pandora/internal/bsaes"
	"pandora/internal/mem"
)

// The AES SubBytes pair: the same primitive implemented two ways, as the
// deliberate contrast the paper's Table I narrative turns on.
//
// aes-ttable looks each secret byte up in a 256-byte S-box table — the
// classical software implementation, and a textbook violation of the
// constant-time base contract: the load address IS the secret. The
// contract checker must flag it at mask 0, before any optimization is
// enabled.
//
// bsaes-sbox computes the same S-box branchlessly — GF(2⁸) inversion by
// the fixed 254 = 2+4+16+32+64+128+… addition chain, then the affine
// transform, transliterated from internal/bsaes's gfMul/gfInv into
// straight-line shift/mask/xor assembly. No secret ever reaches an
// address or a branch, so it is clean under the base contract; the
// enumeration then shows which optimizations break it anyway.

const (
	aesInAddr    = 0x1500 // secret input bytes
	aesTableAddr = 0x3000 // public 256-byte S-box table (ttable only)
	aesTTOutAddr = 0x2300 // ttable output
	aesBSOutAddr = 0x2500 // bsaes output
	aesTTBytes   = 16     // ttable: one full state
	aesBSBytes   = 2      // bsaes: unrolled, so fewer bytes keep it compact
)

// aesInput is the secret state both kernels substitute.
var aesInput = [16]byte{
	0x32, 0x88, 0x31, 0xe0, 0x43, 0x5a, 0x31, 0x37,
	0xf6, 0x30, 0x98, 0x07, 0xa8, 0x8d, 0xa2, 0x34,
}

// aesSBoxTable is the 256-byte S-box aes-ttable looks up, computed once:
// each entry is a GF(2⁸) inversion, too dear to redo in every cell.
var aesSBoxTable = func() (t [256]byte) {
	for i := range t {
		t[i] = bsaes.SBox(byte(i))
	}
	return t
}()

func tableAESSubBytes() Kernel {
	src := fmt.Sprintf(`.secret %#x, %d, state
	li   x5, %#x        # in
	li   x6, %#x        # S-box table
	li   x7, %#x        # out
	li   x8, 0          # i (public)
	li   x14, %d
loop:
	add  x9, x5, x8
	lbu  x10, 0(x9)     # secret byte
	add  x11, x6, x10   # table + secret: the leak
	lbu  x12, 0(x11)
	add  x13, x7, x8
	sb   x12, 0(x13)
	addi x8, x8, 1
	blt  x8, x14, loop
	halt
`, aesInAddr, aesTTBytes, aesInAddr, aesTableAddr, aesTTOutAddr, aesTTBytes)
	return Kernel{
		Name:         "aes-ttable",
		Title:        "AES SubBytes by 256-byte table lookup (secret-indexed loads)",
		ConstantTime: false,
		Source:       src,
		Setup: func(m *mem.Memory) {
			m.StoreBytes(aesTableAddr, aesSBoxTable[:])
			m.StoreBytes(aesInAddr, aesInput[:aesTTBytes])
		},
		Check: func(m *mem.Memory) error {
			return aesCheckSBox(m, aesTTOutAddr, aesTTBytes)
		},
	}
}

// aesCheckSBox verifies n S-box outputs at base against the bitslice
// reference (itself pinned to the FIPS-197 table by the bsaes tests).
func aesCheckSBox(m *mem.Memory, base uint64, n int) error {
	for i := 0; i < n; i++ {
		want := bsaes.SBox(aesInput[i])
		if got := m.LoadByte(base + uint64(i)); got != want {
			return fmt.Errorf("S(%#x) = %#x, want %#x", aesInput[i], got, want)
		}
	}
	return nil
}

// bsaesEmitGfMul appends a fully unrolled branchless GF(2⁸) multiply,
// dst = srcA · srcB mod x⁸+x⁴+x³+x+1, clobbering x14–x18. Direct
// transliteration of bsaes.gfMul: the conditional adds become masks
// built with neg (0−bit), never branches.
func bsaesEmitGfMul(emit func(string, ...any), dst, srcA, srcB string) {
	emit("	mv   x14, %s\n", srcA)
	emit("	mv   x15, %s\n", srcB)
	emit("	li   x16, 0\n")
	for i := 0; i < 8; i++ {
		emit("	andi x17, x15, 1\n")
		emit("	neg  x17, x17\n") // 0 or all-ones
		emit("	and  x17, x14, x17\n")
		emit("	xor  x16, x16, x17\n")
		emit("	srli x18, x14, 7\n")
		emit("	neg  x18, x18\n")
		emit("	andi x18, x18, 0x1b\n") // reduction poly if high bit set
		emit("	slli x14, x14, 1\n")
		emit("	andi x14, x14, 0xff\n")
		emit("	xor  x14, x14, x18\n")
		emit("	srli x15, x15, 1\n")
	}
	emit("	mv   %s, x16\n", dst)
}

// bsaesSrc generates the straight-line S-box kernel: per byte, 13 GF
// multiplies (the x²…x¹²⁸ squaring ladder folded into the accumulator)
// then the affine transform as rotate-xor pairs.
func bsaesSrc() string {
	var b []byte
	emit := func(s string, args ...any) { b = append(b, []byte(fmt.Sprintf(s, args...))...) }
	emit(".secret %#x, %d, state\n", aesInAddr, aesBSBytes)
	emit("	li   x20, %#x\n", aesInAddr)
	emit("	li   x21, %#x\n", aesBSOutAddr)
	for i := 0; i < aesBSBytes; i++ {
		emit("	lbu  x5, %d(x20)\n", i)
		// gfInv: cur = x², acc = cur; 6×{cur = cur², acc ·= cur}
		bsaesEmitGfMul(emit, "x6", "x5", "x5")
		emit("	mv   x7, x6\n")
		for j := 0; j < 6; j++ {
			bsaesEmitGfMul(emit, "x6", "x6", "x6")
			bsaesEmitGfMul(emit, "x7", "x7", "x6")
		}
		// affine: s = inv ^ rotl(inv,1..4) ^ 0x63
		emit("	mv   x8, x7\n")
		for n := 1; n <= 4; n++ {
			emit("	slli x9, x7, %d\n", n)
			emit("	srli x10, x7, %d\n", 8-n)
			emit("	or   x9, x9, x10\n")
			emit("	andi x9, x9, 0xff\n")
			emit("	xor  x8, x8, x9\n")
		}
		emit("	xori x8, x8, 0x63\n")
		emit("	sb   x8, %d(x21)\n", i)
	}
	emit("	halt\n")
	return string(b)
}

func bsaesSubBytes() Kernel {
	return Kernel{
		Name:         "bsaes-sbox",
		Title:        "AES SubBytes computed branchlessly (GF(2⁸) inversion chain)",
		ConstantTime: true,
		Source:       bsaesSrc(),
		Setup: func(m *mem.Memory) {
			m.StoreBytes(aesInAddr, aesInput[:aesBSBytes])
		},
		Check: func(m *mem.Memory) error {
			return aesCheckSBox(m, aesBSOutAddr, aesBSBytes)
		},
	}
}
