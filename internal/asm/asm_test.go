package asm

import (
	"errors"
	"strings"
	"testing"

	"pandora/internal/isa"
	"pandora/internal/taint"
)

func TestAssembleBasics(t *testing.T) {
	p, err := Assemble(`
		# a comment
		addi x1, x0, 42     ; trailing comment
		add  x2, x1, x1
		ld   x3, 16(x2)
		sd   x3, -8(x1)
		lui  x4, 0x12
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := isa.Program{
		{Op: isa.ADDI, Rd: 1, Rs1: 0, Imm: 42},
		{Op: isa.ADD, Rd: 2, Rs1: 1, Rs2: 1},
		{Op: isa.LD, Rd: 3, Rs1: 2, Imm: 16},
		{Op: isa.SD, Rs1: 1, Rs2: 3, Imm: -8},
		{Op: isa.LUI, Rd: 4, Imm: 0x12},
		{Op: isa.HALT},
	}
	if len(p) != len(want) {
		t.Fatalf("got %d instructions, want %d", len(p), len(want))
	}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("inst %d = %+v, want %+v", i, p[i], want[i])
		}
	}
}

func TestLabels(t *testing.T) {
	p, err := Assemble(`
	start:
		addi x1, x0, 3
	loop:
		addi x1, x1, -1
		bne  x1, x0, loop
		jal  x0, done
		addi x2, x0, 9
	done:
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p[2].Imm != 1 {
		t.Errorf("bne target = %d, want 1", p[2].Imm)
	}
	if p[3].Imm != 5 {
		t.Errorf("jal target = %d, want 5", p[3].Imm)
	}
}

func TestLabelOnSameLine(t *testing.T) {
	p, err := Assemble("top: addi x1, x1, 1\nbne x1, x2, top\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[1].Imm != 0 {
		t.Fatalf("unexpected program: %v", p)
	}
}

func TestImmediateForms(t *testing.T) {
	p, err := Assemble(`
		addi x1, x0, 0x10
		addi x2, x0, -5
		addi x3, x0, 'A'
		addi x4, x0, 0xffffffffffffffff
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p[0].Imm != 16 || p[1].Imm != -5 || p[2].Imm != 65 || p[3].Imm != -1 {
		t.Errorf("immediates = %d %d %d %d", p[0].Imm, p[1].Imm, p[2].Imm, p[3].Imm)
	}
}

func TestMemOperandForms(t *testing.T) {
	p, err := Assemble(`
		ld x1, (x2)
		ld x1, 0x20(x3)
		jalr x0, (x1)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p[0].Imm != 0 || p[0].Rs1 != 2 {
		t.Errorf("bare base: %+v", p[0])
	}
	if p[1].Imm != 32 || p[1].Rs1 != 3 {
		t.Errorf("hex offset: %+v", p[1])
	}
	if p[2].Op != isa.JALR || p[2].Rs1 != 1 {
		t.Errorf("jalr: %+v", p[2])
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown mnemonic", "frob x1, x2, x3", "unknown mnemonic"},
		{"bad register", "add x1, x2, x99", "bad register"},
		{"bad register name", "add x1, x2, y3", "bad register"},
		{"missing operand", "add x1, x2", "3 operands"},
		{"undefined label", "jal x0, nowhere", "undefined label"},
		{"duplicate label", "a:\na:\nhalt", "duplicate label"},
		{"bad immediate", "addi x1, x0, zebra", "bad immediate"},
		{"halt with operands", "halt x1", "no operands"},
		{"bad memory operand", "ld x1, 8(x2", "bad memory operand"},
		{"store needs two", "sd x1", "offset(base)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil {
				t.Fatalf("expected error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not contain %q", err, c.wantSub)
			}
		})
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble("addi x1, x0, 1\nfrob\nhalt")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q should mention line 2", err)
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble did not panic on bad source")
		}
	}()
	MustAssemble("bogus")
}

// TestRoundTripDisassembly checks Inst.String output re-assembles to the
// same instruction for non-control ops.
func TestRoundTripDisassembly(t *testing.T) {
	p := MustAssemble(`
		add x1, x2, x3
		addi x4, x5, -17
		mul x6, x7, x8
		ld x9, 24(x10)
		sd x11, 32(x12)
		rdcycle x13
		fence
		halt
	`)
	for _, in := range p {
		re, err := Assemble(in.String())
		if err != nil {
			t.Errorf("re-assemble %q: %v", in.String(), err)
			continue
		}
		if len(re) != 1 || re[0] != in {
			t.Errorf("round trip %q: got %+v, want %+v", in.String(), re[0], in)
		}
	}
}

func TestPseudoInstructions(t *testing.T) {
	p, err := Assemble(`
		nop
		li  x1, 42
		mv  x2, x1
		not x3, x1
		neg x4, x1
		j   end
		ret
	end:
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := isa.Program{
		{Op: isa.ADDI},
		{Op: isa.ADDI, Rd: 1, Imm: 42},
		{Op: isa.ADDI, Rd: 2, Rs1: 1},
		{Op: isa.XORI, Rd: 3, Rs1: 1, Imm: -1},
		{Op: isa.SUB, Rd: 4, Rs2: 1},
		{Op: isa.JAL, Rd: 0, Imm: 7},
		{Op: isa.JALR, Rd: 0, Rs1: 1},
		{Op: isa.HALT},
	}
	for i := range want {
		if p[i] != want[i] {
			t.Errorf("pseudo %d = %+v, want %+v", i, p[i], want[i])
		}
	}
}

func TestPseudoErrors(t *testing.T) {
	for _, src := range []string{"nop x1", "li x1", "mv x1", "j", "ret x1", "not x1", "neg x1", "li x1, frog"} {
		if _, err := Assemble(src); err == nil {
			t.Errorf("pseudo %q accepted", src)
		}
	}
}

func TestPseudoCaseInsensitive(t *testing.T) {
	p, err := Assemble("LI x1, 3\nNOP\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p[0].Op != isa.ADDI || p[0].Imm != 3 {
		t.Errorf("LI expansion: %+v", p[0])
	}
}

func TestSecretDirective(t *testing.T) {
	u, err := AssembleUnit(`
		.secret 0x1000, 16
		.secret 0x2000, 8, key
		addi x1, x0, 0x1000
	loop:
		ld   x2, 0(x1)
		bne  x2, x0, loop
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	want := []SecretRegion{
		{Base: 0x1000, Len: 16, Name: "secret0"},
		{Base: 0x2000, Len: 8, Name: "key"},
	}
	if len(u.Secrets) != len(want) {
		t.Fatalf("got %d secrets, want %d", len(u.Secrets), len(want))
	}
	for i := range want {
		if u.Secrets[i] != want[i] {
			t.Errorf("secret %d = %+v, want %+v", i, u.Secrets[i], want[i])
		}
	}
	// Directives emit no instructions and must not shift label targets:
	// the bne's target is the ld at index 1.
	if len(u.Prog) != 4 {
		t.Fatalf("got %d instructions, want 4", len(u.Prog))
	}
	if u.Prog[2].Op != isa.BNE || u.Prog[2].Imm != 1 {
		t.Errorf("branch = %+v, want target 1", u.Prog[2])
	}
}

func TestSecretDirectiveErrors(t *testing.T) {
	for _, src := range []string{
		".secret",                           // missing operands
		".secret 0x1000",                    // missing length
		".secret 0x1000, 0",                 // zero length
		".secret 0x1000, -4",                // negative length
		".secret 0x1000, 8, 9bad",           // malformed name
		".secret 0x1000, 8, a, b",           // too many operands
		".secret 0x100, 0x7fffffffffffffff", // too long to shadow
		".secret -8, 16",                    // wraps past the top of memory
		".quux 1, 2",                        // unknown directive
	} {
		if _, err := AssembleUnit(src + "\nhalt"); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestAssembleDiscardsDirectives(t *testing.T) {
	p, err := Assemble(".secret 0x1000, 8\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || p[0].Op != isa.HALT {
		t.Fatalf("prog = %+v", p)
	}
}

// FuzzAssembleUnit: assembly source arrives from untrusted bytes (scan
// jobs), so the assembler must never panic, must reject with a
// line-numbered *Error, and every unit it accepts must declare only
// secret regions the taint shadow can label.
func FuzzAssembleUnit(f *testing.F) {
	for _, seed := range []string{
		"halt",
		".secret 0x1000, 16, key\nld x1, 0(x2)\nhalt",
		".secret 0x100, 0x7fffffffffffffff\nhalt\n",
		"loop: addi x1, x1, -1\nbne x1, x0, loop\nhalt",
		"li x1, 'a'\nsd x1, 8(x2)\nj 0",
		"bad: bad:\n.quux",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := AssembleUnit(src)
		if err != nil {
			var ae *Error
			if !errors.As(err, &ae) {
				t.Fatalf("rejection %v (%T) is not an *Error", err, err)
			}
			return
		}
		for _, s := range u.Secrets {
			if err := (taint.Secret{Name: s.Name, Base: s.Base, Len: s.Len}).Check(); err != nil {
				t.Fatalf("accepted unit declares an unlabelable secret: %v", err)
			}
		}
	})
}
