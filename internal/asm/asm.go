// Package asm implements a two-pass assembler for the toy ISA in package
// isa. It exists so experiments and examples can express victim and
// attacker kernels (the amplification gadget, pointer-chase loops, covert
// channel probes) as readable assembly text instead of hand-built
// instruction literals.
//
// Syntax, one instruction or label per line:
//
//	# comment, or ; comment
//	loop:                       # label definition
//	    addi x1, x1, -1         # register-immediate
//	    add  x3, x1, x2         # register-register
//	    ld   x4, 16(x2)         # load: rd, offset(base)
//	    sd   x4, 8(x2)          # store: data, offset(base)
//	    bne  x1, x0, loop       # branch to label (or absolute index)
//	    jal  x0, loop           # unconditional jump
//	    halt
//
// Immediates may be decimal, hex (0x...), or character ('a'). Branch and
// JAL targets are labels or absolute instruction indices.
//
// Directives start with '.' and emit no instruction:
//
//	.secret 0x1000, 16          # declare 16 bytes at 0x1000 secret
//	.secret 0x2000, 8, key      # with an explicit label name
//
// Secret regions are carried on the Unit returned by AssembleUnit and feed
// the taint scanner (`pandora scan`); Assemble accepts and discards them.
// A region the taint shadow cannot label (over taint.MaxSecretLen bytes,
// or wrapping past the top of memory) is an assembly error.
//
// Pseudo-instructions expand to one base instruction each:
//
//	nop            -> addi x0, x0, 0
//	mv  rd, rs     -> addi rd, rs, 0
//	li  rd, imm    -> addi rd, x0, imm
//	j   target     -> jal  x0, target
//	ret            -> jalr x0, 0(x1)
//	not rd, rs     -> xori rd, rs, -1
//	neg rd, rs     -> sub  rd, x0, rs
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"pandora/internal/isa"
	"pandora/internal/taint"
)

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// SecretRegion is one memory range declared secret by a `.secret`
// directive, for the taint scanner.
type SecretRegion struct {
	Base uint64
	Len  uint64
	Name string
}

// Unit is the result of assembling one source text: the program plus any
// metadata directives it carried.
type Unit struct {
	Prog    isa.Program
	Secrets []SecretRegion
}

// Assemble translates source text into a program, discarding directives.
func Assemble(src string) (isa.Program, error) {
	u, err := AssembleUnit(src)
	return u.Prog, err
}

// AssembleUnit translates source text into a program and collects its
// directives.
func AssembleUnit(src string) (Unit, error) {
	a := &assembler{labels: make(map[string]int64)}
	if err := a.firstPass(src); err != nil {
		return Unit{}, err
	}
	if err := a.secondPass(src); err != nil {
		return Unit{}, err
	}
	return Unit{Prog: a.prog, Secrets: a.secrets}, nil
}

// MustAssemble is Assemble that panics on error, for tests and fixed
// experiment kernels whose source is a compile-time constant.
func MustAssemble(src string) isa.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

type assembler struct {
	labels  map[string]int64
	prog    isa.Program
	secrets []SecretRegion
}

// directiveName returns the leading ".name" token when line is a
// directive, or "" otherwise. A label like ".foo:" is not a directive.
func directiveName(line string) string {
	if !strings.HasPrefix(line, ".") {
		return ""
	}
	name := line
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		name = line[:i]
	}
	if strings.Contains(name, ":") {
		return ""
	}
	return name
}

// stripComment removes '#' and ';' comments.
func stripComment(line string) string {
	if i := strings.IndexAny(line, "#;"); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

func (a *assembler) firstPass(src string) error {
	idx := int64(0)
	for ln, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if directiveName(line) != "" {
			continue // directives emit no instruction
		}
		for strings.Contains(line, ":") {
			i := strings.Index(line, ":")
			label := strings.TrimSpace(line[:i])
			if !isIdent(label) {
				return &Error{ln + 1, fmt.Sprintf("bad label %q", label)}
			}
			if _, dup := a.labels[label]; dup {
				return &Error{ln + 1, fmt.Sprintf("duplicate label %q", label)}
			}
			a.labels[label] = idx
			line = strings.TrimSpace(line[i+1:])
		}
		if line != "" {
			idx++
		}
	}
	return nil
}

func (a *assembler) secondPass(src string) error {
	for ln, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if d := directiveName(line); d != "" {
			if err := a.parseDirective(d, line); err != nil {
				return &Error{ln + 1, err.Error()}
			}
			continue
		}
		for strings.Contains(line, ":") {
			line = strings.TrimSpace(line[strings.Index(line, ":")+1:])
		}
		if line == "" {
			continue
		}
		in, err := a.parseInst(line)
		if err != nil {
			return &Error{ln + 1, err.Error()}
		}
		a.prog = append(a.prog, in)
	}
	return nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

var mnemonics = map[string]isa.Op{
	"add": isa.ADD, "sub": isa.SUB, "and": isa.AND, "or": isa.OR, "xor": isa.XOR,
	"sll": isa.SLL, "srl": isa.SRL, "sra": isa.SRA, "slt": isa.SLT, "sltu": isa.SLTU,
	"mul": isa.MUL, "mulh": isa.MULH, "div": isa.DIV, "rem": isa.REM,
	"addi": isa.ADDI, "andi": isa.ANDI, "ori": isa.ORI, "xori": isa.XORI,
	"slli": isa.SLLI, "srli": isa.SRLI, "srai": isa.SRAI, "slti": isa.SLTI, "lui": isa.LUI,
	"lb": isa.LB, "lbu": isa.LBU, "lh": isa.LH, "lhu": isa.LHU,
	"lw": isa.LW, "lwu": isa.LWU, "ld": isa.LD,
	"sb": isa.SB, "sh": isa.SH, "sw": isa.SW, "sd": isa.SD,
	"beq": isa.BEQ, "bne": isa.BNE, "blt": isa.BLT, "bge": isa.BGE,
	"bltu": isa.BLTU, "bgeu": isa.BGEU,
	"jal": isa.JAL, "jalr": isa.JALR,
	"rdcycle": isa.RDCYCLE, "fence": isa.FENCE, "halt": isa.HALT,
}

// splitOperands splits "x1, 8(x2)" into {"x1", "8(x2)"}.
func splitOperands(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseDirective handles a directive line during the second pass. The
// first pass already skipped it, so directives never shift instruction
// indices or label targets.
func (a *assembler) parseDirective(name, line string) error {
	rest := strings.TrimSpace(line[len(name):])
	switch name {
	case ".secret":
		ops := splitOperands(rest)
		if len(ops) != 2 && len(ops) != 3 {
			return fmt.Errorf(".secret needs base, len[, name]")
		}
		base, err := a.parseImm(ops[0])
		if err != nil {
			return err
		}
		n, err := a.parseImm(ops[1])
		if err != nil {
			return err
		}
		if n <= 0 {
			return fmt.Errorf(".secret length must be positive, got %d", n)
		}
		sname := fmt.Sprintf("secret%d", len(a.secrets))
		if len(ops) == 3 {
			if !isIdent(ops[2]) {
				return fmt.Errorf(".secret name %q is not an identifier", ops[2])
			}
			sname = ops[2]
		}
		if err := (taint.Secret{Name: sname, Base: uint64(base), Len: uint64(n)}).Check(); err != nil {
			return err
		}
		a.secrets = append(a.secrets, SecretRegion{Base: uint64(base), Len: uint64(n), Name: sname})
		return nil
	default:
		return fmt.Errorf("unknown directive %q", name)
	}
}

func (a *assembler) parseInst(line string) (isa.Inst, error) {
	var mn, rest string
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mn, rest = line[:i], strings.TrimSpace(line[i+1:])
	} else {
		mn = line
	}
	lower := strings.ToLower(mn)
	if in, ok, err := a.parsePseudo(lower, splitOperands(rest)); ok || err != nil {
		return in, err
	}
	op, ok := mnemonics[lower]
	if !ok {
		return isa.Inst{}, fmt.Errorf("unknown mnemonic %q", mn)
	}
	ops := splitOperands(rest)

	switch isa.ClassOf(op) {
	case isa.ClassALU, isa.ClassMul, isa.ClassDiv:
		if op == isa.LUI {
			if len(ops) != 2 {
				return isa.Inst{}, fmt.Errorf("lui needs rd, imm")
			}
			rd, err := parseReg(ops[0])
			if err != nil {
				return isa.Inst{}, err
			}
			imm, err := a.parseImm(ops[1])
			if err != nil {
				return isa.Inst{}, err
			}
			return isa.Inst{Op: op, Rd: rd, Imm: imm}, nil
		}
		if len(ops) != 3 {
			return isa.Inst{}, fmt.Errorf("%s needs 3 operands", mn)
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return isa.Inst{}, err
		}
		rs1, err := parseReg(ops[1])
		if err != nil {
			return isa.Inst{}, err
		}
		if isa.HasImm(op) {
			imm, err := a.parseImm(ops[2])
			if err != nil {
				return isa.Inst{}, err
			}
			return isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm}, nil
		}
		rs2, err := parseReg(ops[2])
		if err != nil {
			return isa.Inst{}, err
		}
		return isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, nil

	case isa.ClassLoad:
		if len(ops) != 2 {
			return isa.Inst{}, fmt.Errorf("%s needs rd, offset(base)", mn)
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return isa.Inst{}, err
		}
		imm, base, err := a.parseMemOperand(ops[1])
		if err != nil {
			return isa.Inst{}, err
		}
		return isa.Inst{Op: op, Rd: rd, Rs1: base, Imm: imm}, nil

	case isa.ClassStore:
		if len(ops) != 2 {
			return isa.Inst{}, fmt.Errorf("%s needs data, offset(base)", mn)
		}
		data, err := parseReg(ops[0])
		if err != nil {
			return isa.Inst{}, err
		}
		imm, base, err := a.parseMemOperand(ops[1])
		if err != nil {
			return isa.Inst{}, err
		}
		return isa.Inst{Op: op, Rs1: base, Rs2: data, Imm: imm}, nil

	case isa.ClassBranch:
		if len(ops) != 3 {
			return isa.Inst{}, fmt.Errorf("%s needs rs1, rs2, target", mn)
		}
		rs1, err := parseReg(ops[0])
		if err != nil {
			return isa.Inst{}, err
		}
		rs2, err := parseReg(ops[1])
		if err != nil {
			return isa.Inst{}, err
		}
		tgt, err := a.parseTarget(ops[2])
		if err != nil {
			return isa.Inst{}, err
		}
		return isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: tgt}, nil

	case isa.ClassJump:
		if op == isa.JAL {
			if len(ops) != 2 {
				return isa.Inst{}, fmt.Errorf("jal needs rd, target")
			}
			rd, err := parseReg(ops[0])
			if err != nil {
				return isa.Inst{}, err
			}
			tgt, err := a.parseTarget(ops[1])
			if err != nil {
				return isa.Inst{}, err
			}
			return isa.Inst{Op: op, Rd: rd, Imm: tgt}, nil
		}
		if len(ops) != 2 {
			return isa.Inst{}, fmt.Errorf("jalr needs rd, offset(base)")
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return isa.Inst{}, err
		}
		imm, base, err := a.parseMemOperand(ops[1])
		if err != nil {
			return isa.Inst{}, err
		}
		return isa.Inst{Op: op, Rd: rd, Rs1: base, Imm: imm}, nil

	case isa.ClassCSR:
		if len(ops) != 1 {
			return isa.Inst{}, fmt.Errorf("rdcycle needs rd")
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return isa.Inst{}, err
		}
		return isa.Inst{Op: op, Rd: rd}, nil

	case isa.ClassFence, isa.ClassHalt:
		if len(ops) != 0 {
			return isa.Inst{}, fmt.Errorf("%s takes no operands", mn)
		}
		return isa.Inst{Op: op}, nil
	}
	return isa.Inst{}, fmt.Errorf("unhandled mnemonic %q", mn)
}

// parsePseudo expands pseudo-instructions; ok reports whether the
// mnemonic was one.
func (a *assembler) parsePseudo(mn string, ops []string) (isa.Inst, bool, error) {
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s needs %d operand(s)", mn, n)
		}
		return nil
	}
	switch mn {
	case "nop":
		if err := need(0); err != nil {
			return isa.Inst{}, true, err
		}
		return isa.Inst{Op: isa.ADDI}, true, nil
	case "mv":
		if err := need(2); err != nil {
			return isa.Inst{}, true, err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return isa.Inst{}, true, err
		}
		rs, err := parseReg(ops[1])
		if err != nil {
			return isa.Inst{}, true, err
		}
		return isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rs}, true, nil
	case "li":
		if err := need(2); err != nil {
			return isa.Inst{}, true, err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return isa.Inst{}, true, err
		}
		imm, err := a.parseImm(ops[1])
		if err != nil {
			return isa.Inst{}, true, err
		}
		return isa.Inst{Op: isa.ADDI, Rd: rd, Imm: imm}, true, nil
	case "j":
		if err := need(1); err != nil {
			return isa.Inst{}, true, err
		}
		tgt, err := a.parseTarget(ops[0])
		if err != nil {
			return isa.Inst{}, true, err
		}
		return isa.Inst{Op: isa.JAL, Rd: isa.X0, Imm: tgt}, true, nil
	case "ret":
		if err := need(0); err != nil {
			return isa.Inst{}, true, err
		}
		return isa.Inst{Op: isa.JALR, Rd: isa.X0, Rs1: 1}, true, nil
	case "not":
		if err := need(2); err != nil {
			return isa.Inst{}, true, err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return isa.Inst{}, true, err
		}
		rs, err := parseReg(ops[1])
		if err != nil {
			return isa.Inst{}, true, err
		}
		return isa.Inst{Op: isa.XORI, Rd: rd, Rs1: rs, Imm: -1}, true, nil
	case "neg":
		if err := need(2); err != nil {
			return isa.Inst{}, true, err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return isa.Inst{}, true, err
		}
		rs, err := parseReg(ops[1])
		if err != nil {
			return isa.Inst{}, true, err
		}
		return isa.Inst{Op: isa.SUB, Rd: rd, Rs2: rs}, true, nil
	}
	return isa.Inst{}, false, nil
}

func parseReg(s string) (isa.Reg, error) {
	s = strings.ToLower(s)
	if !strings.HasPrefix(s, "x") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

func (a *assembler) parseImm(s string) (int64, error) {
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		r := []rune(s[1 : len(s)-1])
		if len(r) != 1 {
			return 0, fmt.Errorf("bad char literal %s", s)
		}
		return int64(r[0]), nil
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		// Allow unsigned hex up to 64 bits.
		u, uerr := strconv.ParseUint(s, 0, 64)
		if uerr != nil {
			return 0, fmt.Errorf("bad immediate %q", s)
		}
		return int64(u), nil
	}
	return v, nil
}

// parseTarget resolves a branch/jump target: a label or an absolute index.
func (a *assembler) parseTarget(s string) (int64, error) {
	if t, ok := a.labels[s]; ok {
		return t, nil
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, nil
	}
	return 0, fmt.Errorf("undefined label %q", s)
}

// parseMemOperand parses "offset(base)", "(base)" or "offset".
func (a *assembler) parseMemOperand(s string) (int64, isa.Reg, error) {
	open := strings.Index(s, "(")
	if open < 0 {
		imm, err := a.parseImm(s)
		return imm, isa.X0, err
	}
	if !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	var imm int64
	var err error
	if open > 0 {
		imm, err = a.parseImm(s[:open])
		if err != nil {
			return 0, 0, err
		}
	}
	base, err := parseReg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	return imm, base, nil
}
