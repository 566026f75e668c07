// Package taint is the shadow-label engine behind `pandora scan`: it
// propagates per-byte secret labels alongside architectural state so that
// leakage observers — one per optimization class from the paper's Table I
// — can report exactly when an optimization's *trigger condition* (store
// value equals old value, multiply operand is zero, two physical
// registers hold the same value, ...) came to depend on a secret.
//
// The representation is deliberately simple: a LabelSet is a 64-bit mask
// of named labels, registers carry one set each, and memory is shadowed
// by a sparse per-byte map (ShadowMemory). Propagation follows standard
// dynamic-taint union rules, shared between the functional emulator
// (through emu.Machine's Shadow hook, see StepEmu) and the out-of-order
// pipeline (which mirrors the same rules at retire so shadow state is
// updated in program order). Control-flow taint is sticky: once a branch
// or indirect-jump predicate is labeled, every later architectural write
// inherits the label, which keeps the engine sound (no under-tainting)
// at the cost of precision — the right trade for a scanner whose job is
// to prove the *absence* of secret-dependent triggers.
package taint

import (
	"fmt"
	"strconv"
	"strings"

	"pandora/internal/emu"
	"pandora/internal/isa"
	"pandora/internal/obs"
)

// LabelSet is a set of secret labels, one bit per label defined in a
// Registry. The zero LabelSet is "untainted".
type LabelSet uint64

// MaxLabels is the number of distinct labels a Registry can hold.
const MaxLabels = 64

// Any reports whether the set contains at least one label.
func (s LabelSet) Any() bool { return s != 0 }

// Union returns s ∪ t.
func (s LabelSet) Union(t LabelSet) LabelSet { return s | t }

// Has reports whether label bit i is in the set.
func (s LabelSet) Has(i int) bool { return i >= 0 && i < MaxLabels && s&(1<<uint(i)) != 0 }

// Registry maps label bits to human-readable names ("key", "kernel").
type Registry struct {
	names []string
}

// Define allocates a new label bit under the given name.
func (r *Registry) Define(name string) (LabelSet, error) {
	if len(r.names) >= MaxLabels {
		return 0, fmt.Errorf("taint: more than %d labels", MaxLabels)
	}
	r.names = append(r.names, name)
	return 1 << uint(len(r.names)-1), nil
}

// Names returns the names of every label in s, in definition order.
func (r *Registry) Names(s LabelSet) []string {
	var out []string
	for i, n := range r.names {
		if s.Has(i) {
			out = append(out, n)
		}
	}
	return out
}

// Format renders s as "{key,kernel}" ("{}" when empty). Labels beyond the
// registry are rendered by bit number.
func (r *Registry) Format(s LabelSet) string {
	out := "{"
	first := true
	for i := 0; i < MaxLabels; i++ {
		if !s.Has(i) {
			continue
		}
		if !first {
			out += ","
		}
		first = false
		if r != nil && i < len(r.names) {
			out += r.names[i]
		} else {
			out += fmt.Sprintf("label%d", i)
		}
	}
	return out + "}"
}

// Secret names one memory region whose contents are secret. It is the
// package-level mirror of the assembler's `.secret base,len,name`
// directive.
type Secret struct {
	Name string
	Base uint64
	Len  uint64
}

// MaxSecretLen bounds one secret region's length. Shadow memory keeps
// an entry per labeled byte, so an unbounded region is an unbounded
// allocation; 64 KiB is far above the largest region any built-in
// scenario or kernel declares (a few hundred bytes).
const MaxSecretLen = 64 << 10

// SecretError reports a secret region that cannot be parsed or labeled.
type SecretError struct {
	// Secret is the offending region: as written when it does not
	// parse, in Secret.String form when it parses but fails Check.
	Secret string
	Reason string
}

func (e *SecretError) Error() string {
	return fmt.Sprintf("taint: bad secret %q: %s", e.Secret, e.Reason)
}

// String renders the region in ParseSecret's "base:len:name" form.
func (s Secret) String() string { return fmt.Sprintf("%#x:%d:%s", s.Base, s.Len, s.Name) }

// Check reports whether the region can be labeled: at least one byte,
// at most MaxSecretLen bytes, and not wrapping past the top of the
// address space.
func (s Secret) Check() error {
	var reason string
	switch {
	case s.Len == 0:
		reason = "empty region"
	case s.Len > MaxSecretLen:
		reason = fmt.Sprintf("length %d exceeds the %d-byte limit", s.Len, MaxSecretLen)
	case s.Base+(s.Len-1) < s.Base:
		reason = "region wraps past the top of the address space"
	default:
		return nil
	}
	return &SecretError{Secret: s.String(), Reason: reason}
}

// ParseSecret parses the textual secret-region form "base:len[:name]"
// (numbers in any Go literal base) shared by the `pandora scan -secret`
// flag and the serve job API. The name defaults to "secret". Every
// error is a *SecretError.
func ParseSecret(s string) (Secret, error) {
	bad := func(format string, args ...any) (Secret, error) {
		return Secret{}, &SecretError{Secret: s, Reason: fmt.Sprintf(format, args...)}
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return bad("want base:len[:name]")
	}
	base, err := strconv.ParseUint(parts[0], 0, 64)
	if err != nil {
		return bad("base %q: %v", parts[0], err)
	}
	n, err := strconv.ParseUint(parts[1], 0, 64)
	if err != nil {
		return bad("length %q: %v", parts[1], err)
	}
	name := "secret"
	if len(parts) == 3 {
		name = parts[2]
	}
	sec := Secret{Name: name, Base: base, Len: n}
	if err := sec.Check(); err != nil {
		return Secret{}, err
	}
	return sec, nil
}

// State is the full shadow of one machine: register labels, per-byte
// memory labels, the sticky control-flow set, and the event recorder the
// observers write to. One State may be shared between an emulator and a
// pipeline (e.g. to pre-label memory once), but not concurrently.
type State struct {
	Names *Registry
	Regs  [isa.NumRegs]LabelSet
	Mem   *ShadowMemory

	// Control accumulates the labels of every branch or indirect-jump
	// predicate executed so far. It is folded into every subsequent
	// architectural write (implicit-flow over-approximation).
	Control LabelSet

	// Pred tracks, per load PC, the labels of the last value retired by
	// that load — the shadow of a value predictor's table, used when a
	// consumer reads a predicted value whose producer has not executed.
	Pred map[int64]LabelSet

	Rec *Recorder

	// Probe, when non-nil, receives an obs.KindTaintLeak event for every
	// recorded leak — the taint track of the observability layer.
	// pipeline.New wires it from Config.Probe; it never affects what the
	// Recorder stores.
	Probe obs.Probe

	// BreakALU, when set, deliberately drops operand labels across ALU
	// results. It exists only so the self-test (`pandora scan -inject`)
	// can prove VerifyPropagation detects a broken propagation rule.
	BreakALU bool

	// ObserveAddrs arms the cache-address observer: every demand load or
	// store whose address-formation operands carry labels records an
	// OptCacheAddr event. Off by default — the optimization scenarios
	// study channels beyond the classical cache one, and their reports
	// stay byte-identical with the flag off. The contract checker
	// (internal/kernels) turns it on to enforce the constant-time
	// baseline contract.
	ObserveAddrs bool
}

// NewState returns an empty shadow with a fresh registry and recorder.
func NewState() *State {
	return &State{
		Names: &Registry{},
		Mem:   NewShadowMemory(),
		Pred:  make(map[int64]LabelSet),
		Rec:   NewRecorder(),
	}
}

// DefineSecret allocates a label named s.Name and applies it to the
// region's shadow bytes. A region failing Secret.Check is rejected with
// a *SecretError before any label is allocated.
func (st *State) DefineSecret(s Secret) (LabelSet, error) {
	if err := s.Check(); err != nil {
		return 0, err
	}
	l, err := st.Names.Define(s.Name)
	if err != nil {
		return 0, err
	}
	st.Mem.TaintRange(s.Base, s.Len, l)
	return l, nil
}

// ResetRun clears the architectural shadow (registers and control taint)
// for a fresh program run. Shadow memory and the predictor-table shadow
// persist — like their architectural and microarchitectural counterparts,
// they are exactly the state that carries secrets across runs.
func (st *State) ResetRun() {
	st.Regs = [isa.NumRegs]LabelSet{}
	st.Control = 0
}

func (st *State) setReg(r isa.Reg, l LabelSet) {
	if r != isa.X0 {
		st.Regs[r] = l
	}
}

// Attach binds the shadow to a functional emulator via its Shadow hook.
func (st *State) Attach(mc *emu.Machine) { mc.Shadow = st.StepEmu }

// StepEmu propagates labels for one instruction, given the pre-execution
// register file. Its signature matches emu.Machine.Shadow. The rules are
// the same ones the pipeline applies at retire:
//
//   - ALU/mul/div: rd ← labels(rs1) ∪ labels(rs2) ∪ Control
//     (immediates carry no labels; Uses() already maps them to X0)
//   - load:        rd ← labels(mem bytes) ∪ labels(base) ∪ Control
//   - store:       mem bytes ← labels(data) ∪ labels(base) ∪ Control
//   - branch:      Control ← Control ∪ labels(predicate)
//   - JALR:        Control ← Control ∪ labels(target base); link ← Control
//   - RDCYCLE:     rd ← Control (the counter reflects the executed path)
func (st *State) StepEmu(pc int64, in isa.Inst, regs *[isa.NumRegs]uint64) {
	switch isa.ClassOf(in.Op) {
	case isa.ClassALU, isa.ClassMul, isa.ClassDiv:
		r1, r2 := in.Uses()
		l := st.Regs[r1] | st.Regs[r2]
		if st.BreakALU {
			l = 0
		}
		st.setReg(in.Writes(), l|st.Control)

	case isa.ClassLoad:
		addr := in.EffectiveAddr(regs[in.Rs1])
		l := st.Mem.Read(addr, isa.MemWidth(in.Op)) | st.Regs[in.Rs1]
		st.setReg(in.Writes(), l|st.Control)

	case isa.ClassStore:
		addr := in.EffectiveAddr(regs[in.Rs1])
		st.Mem.Write(addr, isa.MemWidth(in.Op), st.Regs[in.Rs2]|st.Regs[in.Rs1]|st.Control)

	case isa.ClassBranch:
		if l := st.Regs[in.Rs1] | st.Regs[in.Rs2]; l.Any() {
			st.Control |= l
		}

	case isa.ClassJump:
		if in.Op == isa.JALR {
			st.Control |= st.Regs[in.Rs1]
		}
		st.setReg(in.Writes(), st.Control)

	case isa.ClassCSR:
		st.setReg(in.Writes(), st.Control)
	}
}
