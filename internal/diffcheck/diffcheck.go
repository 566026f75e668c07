// Package diffcheck is the differential-testing harness for the simulator
// core: it runs the same program through the functional emulator (package
// emu) and the out-of-order pipeline (package pipeline) and demands
// bit-identical final architectural state — every committed register and
// every byte of data memory — under every combination of the nine
// microarchitectural toggles (the seven optimization classes the paper
// studies plus branch speculation and the store-to-load forwarding
// predictor) and under a spread of cache geometries and replacement
// policies.
//
// The pipeline already cross-checks each retired result against an inline
// oracle, but that only covers values that flow through retire
// verification; final-state comparison additionally catches store-queue
// drain bugs, forwarding bugs that cancel out at retire, taint bookkeeping
// errors and cache-model corruption surfaced by the invariant checks
// (pipeline.Config.CheckInvariants, cache.HierConfig.SelfCheck), which the
// harness always enables.
//
// Programs come from three sources: a seeded random generator (Generate),
// hand-written fixtures, and the mini-eBPF JIT (Fixtures). A Subject hook
// rewrites programs before the pipeline sees them, which is how the
// harness proves it can catch bugs: an injected miscompile (BugSRAAsSRL)
// must be detected and minimized to a short repro (Minimize).
package diffcheck

import (
	"fmt"

	"pandora/internal/cache"
	"pandora/internal/emu"
	"pandora/internal/faults"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
	"pandora/internal/uopt"
)

// maxEmuSteps bounds the golden run; generated and fixture programs
// terminate in far fewer steps, so hitting it means the program does not
// halt and the case is not comparable.
const maxEmuSteps = 1_000_000

// ToggleMask selects which of the nine toggled mechanisms are enabled:
// the seven studied optimization classes, wrong-path branch speculation,
// and the store-to-load forwarding predictor. All 2^9 combinations are
// valid pipeline configurations.
type ToggleMask uint16

const (
	TogSilentStores ToggleMask = 1 << iota
	TogPredictor
	TogReuse
	TogSimplifier
	TogPacker
	TogRFC
	TogFuse
	// TogSpec enables wrong-path fetch behind a bimodal branch predictor:
	// squash recovery and speculative cache pollution join the compared
	// behavior (architectural state must stay bit-identical regardless).
	TogSpec
	// TogStLF enables the store-to-load forwarding predictor together with
	// a slow store AGU, so speculative forwards — and their retire-time
	// verify/replay — actually occur.
	TogStLF
)

// NumToggles is the number of independent toggles; AllMasks is the size of
// the full combination space.
const (
	NumToggles = 9
	AllMasks   = 1 << NumToggles
)

var toggleNames = []struct {
	bit  ToggleMask
	name string
}{
	{TogSilentStores, "ss"},
	{TogPredictor, "vp"},
	{TogReuse, "ru"},
	{TogSimplifier, "cs"},
	{TogPacker, "pk"},
	{TogRFC, "rfc"},
	{TogFuse, "fu"},
	{TogSpec, "sp"},
	{TogStLF, "sf"},
}

func (m ToggleMask) String() string {
	if m == 0 {
		return "none"
	}
	s := ""
	for _, t := range toggleNames {
		if m&t.bit != 0 {
			if s != "" {
				s += "+"
			}
			s += t.name
		}
	}
	return s
}

// PipeConfig builds the pipeline configuration for a toggle mask. Each
// call returns fresh optimization state (predictors and reuse buffers are
// stateful), with invariant checking on and a cycle budget suited to the
// short programs the harness runs.
func PipeConfig(mask ToggleMask) pipeline.Config {
	c := pipeline.DefaultConfig()
	c.MaxCycles = 2_000_000
	c.CheckInvariants = true
	if mask&TogSilentStores != 0 {
		c.SilentStores = &pipeline.SilentStoreConfig{Retry: true}
	}
	if mask&TogPredictor != 0 {
		c.Predictor = uopt.NewPredictor(2)
	}
	if mask&TogReuse != 0 {
		c.Reuse = uopt.NewReuseBuffer(uopt.SchemeSv, 64)
	}
	if mask&TogSimplifier != 0 {
		c.Simplifier = &uopt.Simplifier{ZeroSkipMul: true, TrivialALU: true, EarlyExitDiv: true}
	}
	if mask&TogPacker != 0 {
		c.Packer = uopt.NewPacker()
	}
	if mask&TogRFC != 0 {
		c.RFC = uopt.RFCAnyValue
		c.PhysRegs = 48 // tight free list so compression actually engages
	}
	if mask&TogFuse != 0 {
		c.FuseAddiLoad = true
	}
	if mask&TogSpec != 0 {
		c.Speculation = &pipeline.SpeculationConfig{WrongPath: true, Bimodal: true}
	}
	if mask&TogStLF != 0 {
		if c.Speculation == nil {
			c.Speculation = &pipeline.SpeculationConfig{}
		}
		c.Speculation.StLF = true
		c.StoreAddrLat = 4
	}
	return c
}

// CacheVariant names one hierarchy geometry the harness runs under.
// Stride additionally attaches a stride prefetcher, exercising the
// prefetch fill paths (and, with a prefetch buffer, the buffer's
// inclusivity bookkeeping).
type CacheVariant struct {
	Name   string
	Config cache.HierConfig
	Stride bool
}

// CacheVariants returns the hierarchy geometries the harness cycles
// through. All have SelfCheck on. The tiny variants force constant
// eviction and back-invalidation; the ways=6 variant is the
// non-power-of-two TreePLRU shape whose victim walk was previously broken.
func CacheVariants() []CacheVariant {
	tiny := func(policy cache.Policy, l1Ways, l2Ways int) cache.HierConfig {
		return cache.HierConfig{
			L1:         cache.Config{Name: "L1D", Sets: 4, Ways: l1Ways, LineSize: 64, HitLatency: 2, Policy: policy, Seed: 7},
			L2:         cache.Config{Name: "L2", Sets: 8, Ways: l2Ways, LineSize: 64, HitLatency: 12, Policy: policy, Seed: 11},
			MemLatency: 100,
			SelfCheck:  true,
		}
	}
	def := cache.DefaultHierConfig()
	def.SelfCheck = true

	pbuf := tiny(cache.LRU, 2, 4)
	pbuf.PrefetchBuffer = true
	pbuf.PrefetchBufferSize = 4

	return []CacheVariant{
		{Name: "default-lru", Config: def},
		{Name: "tiny-lru", Config: tiny(cache.LRU, 2, 4)},
		{Name: "tiny-plru-pow2", Config: tiny(cache.TreePLRU, 4, 8)},
		{Name: "tiny-plru-ways6", Config: tiny(cache.TreePLRU, 6, 6)},
		{Name: "tiny-random", Config: tiny(cache.Random, 2, 4)},
		{Name: "stride-pbuf", Config: pbuf, Stride: true},
	}
}

// Case is one comparable program: the code plus the memory image both
// machines start from.
type Case struct {
	Name string
	Prog isa.Program
	// Init seeds the memory image; it runs once per machine on a fresh
	// memory and must be deterministic.
	Init func(*mem.Memory)
}

// Subject rewrites a program before the pipeline runs it (the emulator
// always runs the original). It exists to inject deliberate miscompiles
// and model bugs so the harness can prove it detects them.
type Subject func(isa.Program) isa.Program

// SubjectFromPlan builds a Subject that applies a program-level fault
// plan (internal/faults) to each program before the pipeline runs it —
// the same mechanism the fault campaign uses, so `pandora check -inject`
// and `pandora fault` exercise one injector. A nil or inert plan yields a
// nil Subject. Each invocation uses a fresh Injector: a Subject is called
// once per run, and injector firing state is single-run.
func SubjectFromPlan(plan *faults.Plan) Subject {
	if faults.NewInjector(plan) == nil {
		return nil
	}
	return func(p isa.Program) isa.Program {
		return faults.NewInjector(plan).Rewrite(p)
	}
}

// BugSRAAsSRL is the canonical injected bug — every arithmetic right
// shift becomes a logical one, diverging only when a shifted value is
// negative, so catching it requires real data-dependent coverage. It is
// the SiteMiscompile fault plan applied as a Subject.
func BugSRAAsSRL(p isa.Program) isa.Program {
	return SubjectFromPlan(&faults.Plan{Site: faults.SiteMiscompile})(p)
}

// Divergence describes one disagreement between pipeline and emulator.
type Divergence struct {
	Kind   string // "register", "memory", "pipeline-error", "config-error"
	Detail string
}

func (d Divergence) String() string { return d.Kind + ": " + d.Detail }

// RunCase runs c through both machines under one toggle mask and cache
// variant and returns the first divergence, or nil when the final
// architectural states agree. RDCYCLE-derived (tainted) registers and
// memory bytes are excluded: they are timing-dependent by design.
// A case whose golden run does not halt is not comparable and returns nil.
// Each call builds its own emulator, machine, memory and hierarchy.
func RunCase(c Case, mask ToggleMask, v CacheVariant, subject Subject) *Divergence {
	golden := goldenRun(c, mem.New())
	if golden == nil {
		return nil
	}
	return new(Sim).against(golden, c, mask, v, subject)
}

// goldenRun runs c on the emulator over m, emptied first, returning the
// emulator's final state, or nil when the program does not halt within
// maxEmuSteps.
func goldenRun(c Case, m *mem.Memory) *emu.Machine {
	m.Reset()
	golden := emu.New(m)
	if c.Init != nil {
		c.Init(golden.Mem)
	}
	if err := golden.Run(c.Prog, maxEmuSteps); err != nil {
		return nil
	}
	return golden
}

// against runs c on s's pipeline under one toggle mask and cache variant
// and compares the final architectural state with golden, c's emulator
// run, which it only reads: one golden serves every run of a case.
func (s *Sim) against(golden *emu.Machine, c Case, mask ToggleMask, v CacheVariant, subject Subject) *Divergence {
	prog := c.Prog
	if subject != nil {
		prog = subject(prog)
	}
	m, err := s.Boot(PipeConfig(mask), v, c.Init)
	if err != nil {
		return &Divergence{Kind: "config-error", Detail: err.Error()}
	}
	if _, err := m.Run(prog); err != nil {
		return &Divergence{Kind: "pipeline-error", Detail: err.Error()}
	}

	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if m.RegTainted(r) {
			continue
		}
		if got, want := m.Reg(r), golden.Regs[r]; got != want {
			return &Divergence{Kind: "register",
				Detail: fmt.Sprintf("%v = %#x, emulator has %#x", r, got, want)}
		}
	}
	for _, d := range mem.Diff(m.Memory(), golden.Mem, 0) {
		if m.MemTainted(d.Addr) {
			continue
		}
		return &Divergence{Kind: "memory",
			Detail: fmt.Sprintf("mem[%#x] = %#x, emulator has %#x", d.Addr, d.A, d.B)}
	}
	return nil
}
