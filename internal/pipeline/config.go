// Package pipeline implements the deterministic cycle-level out-of-order
// core used by every timing experiment in this repository — the role gem5
// played for the paper's proofs of concept.
//
// The model is functionally self-contained: instruction results, load
// values (with store-to-load forwarding) and store data are computed inside
// the timing model from the dataflow graph, while a functional oracle
// (package emu, running on a copy-on-write clone of data memory) steers
// fetch down the correct path and cross-checks every retired result.
// Programs therefore cannot diverge silently: any simulator bug that
// corrupts a value fails loudly at retire.
//
// All seven optimization classes studied by the paper plug into the
// stages: computation simplification and reuse and operand packing into
// issue/execute, value prediction into load dispatch/writeback (with full
// squash-and-replay), register-file compression into rename/retire free-
// list accounting, silent stores into the store queue (Lepak–Lipasti
// read-port stealing, Figure 4), and data memory-dependent prefetchers
// observe the cache hierarchy (package dmp).
package pipeline

import (
	"fmt"

	"pandora/internal/cache"
	"pandora/internal/faults"
	"pandora/internal/obs"
	"pandora/internal/taint"
	"pandora/internal/uopt"
)

// SilentStoreScheme selects how silent-store candidacy is checked.
// "Different proposals implement checking in different ways, in different
// pipeline stages" (Section IV-C1).
type SilentStoreScheme uint8

const (
	// SSReadPortStealing issues an SS-Load through a free load port as
	// soon as the store's address resolves (Lepak & Lipasti's free-
	// silent-store-squashing; the scheme the paper implements and
	// Figure 4 describes).
	SSReadPortStealing SilentStoreScheme = iota
	// SSLSQCompare compares the in-flight store against an older
	// in-flight store to the same address in the load-store queue — no
	// memory read at all, but it only catches store pairs that overlap
	// in flight.
	SSLSQCompare
)

func (s SilentStoreScheme) String() string {
	if s == SSLSQCompare {
		return "lsq-compare"
	}
	return "read-port-stealing"
}

// SilentStoreConfig enables and parameterizes the silent-store
// implementation (Section V-A1 of the paper; Lepak & Lipasti, "Silent
// Stores for Free", MICRO'00).
type SilentStoreConfig struct {
	// Scheme selects the candidacy check.
	Scheme SilentStoreScheme
	// Retry lets the SS-Load re-attempt issue on later cycles when no
	// load port is free. The paper's Figure 4 Case C corresponds to
	// Retry=false (a single attempt; failure means the store is simply
	// not a silent-store candidate). Read-port stealing only.
	Retry bool
}

// SpeculationConfig enables control- and memory-speculation: wrong-path
// fetch past mispredicted branches (with full squash recovery) and a
// store-to-load forwarding predictor that forwards before the store
// address resolves (with replay on misprediction). Nil disables all of it
// and the pipeline behaves exactly as the non-speculative machine — the
// property the differential oracle's baseline masks rely on.
type SpeculationConfig struct {
	// WrongPath lets fetch continue down the predicted path of a
	// mispredicted conditional branch instead of stalling; the wrong-path
	// µops rename, issue and access the cache, and are squashed (never
	// retired) when the branch resolves.
	WrongPath bool
	// MaxWrongPath caps how many wrong-path µops may be fetched per
	// outstanding mispredicted branch (0 means ROBSize).
	MaxWrongPath int

	// Bimodal replaces the static BTFN direction prediction with a table
	// of 1<<bimodalBits 2-bit saturating counters indexed by PC, trained
	// at retire.
	Bimodal bool

	// StLF enables the store-to-load forwarding predictor: a load whose
	// older stores have unresolved addresses may speculatively consume the
	// youngest such store's data when the per-PC confidence counter is
	// high, verifying at retire and replaying on a mismatch (the
	// Store-to-Leak Forwarding substrate). The per-PC confidence table
	// has 1<<stlfBits entries.
	StLF bool
}

// MaxStoreAddrLat bounds Config.StoreAddrLat well below WatchdogWindow:
// a store at the ROB head that executes for longer than the window would
// be declared livelocked.
const MaxStoreAddrLat = 1000

// Predictor table sizes (log2 of the entry count).
const (
	bimodalBits = 10
	stlfBits    = 8
)

func (s *SpeculationConfig) maxWrongPath(robSize int) int {
	if s.MaxWrongPath > 0 {
		return s.MaxWrongPath
	}
	return robSize
}

// Config parameterizes the core. The zero value is not valid; use
// DefaultConfig and adjust.
type Config struct {
	FetchWidth  int
	RetireWidth int

	ROBSize  int
	IQSize   int
	LQSize   int
	SQSize   int
	PhysRegs int

	ALUPorts    int
	LoadPorts   int
	StorePorts  int
	MulDivUnits int

	ALULat int
	MulLat int
	DivLat int

	// BranchPenalty is the fetch-redirect bubble after a mispredicted
	// branch or an indirect jump resolves. Direction prediction is static
	// BTFN (backward taken, forward not-taken); JALR always redirects.
	BranchPenalty int
	// SquashPenalty is the refetch bubble after a value-misprediction
	// squash.
	SquashPenalty int
	// ForwardLat is the latency of a load fully satisfied by
	// store-to-load forwarding.
	ForwardLat int
	// StoreAddrLat is the store address-generation latency (0 means 1,
	// at most MaxStoreAddrLat). Widening it opens the window in which a
	// load's older stores are unresolved — the window the store-to-load
	// forwarding predictor bets on.
	StoreAddrLat int

	// Speculation, when non-nil, enables wrong-path fetch and the
	// store-to-load forwarding predictor (see SpeculationConfig). Nil is
	// bit-identical to the non-speculative machine.
	Speculation *SpeculationConfig

	// MaxCycles bounds simulated time for programs that keep retiring
	// forever; Run returns a StallError when it is exceeded. (A machine
	// that stops making progress trips the supervisor's window first.)
	MaxCycles int64

	// Cancel, when non-nil, is the cooperative cancellation flag: raising
	// it from any goroutine makes Run abort with ErrCancelled at its next
	// checkpoint (every cancelCheckInterval cycles). This is how a job
	// deadline stops a simulation in wall-clock time — MaxCycles bounds
	// simulated time only. Nil costs one pointer compare per cycle.
	Cancel *CancelFlag

	// Probe, when non-nil, receives a typed obs.Event for every pipeline,
	// cache, optimization, taint and fault occurrence (the observability
	// layer; see internal/obs). New wires the same probe into the cache
	// hierarchy, the taint engine and the fault injector. Nil costs
	// nothing: every emission site is guarded by a single nil check.
	Probe obs.Probe

	// Faults, when non-nil, attaches a deterministic fault injector
	// (internal/faults): its plan decides which single structural fault —
	// a PRF/LSQ/forwarding bit flip, a dropped issue wakeup, a stuck
	// fence, a delayed fill, corrupted cache state — fires, and when. The
	// injector is single-run state; nil changes nothing.
	Faults *faults.Injector

	// CheckInvariants enables per-cycle structural self-checks: ROB
	// program order and in-order retire, store-queue ordering and dequeue
	// discipline, store-to-load forwarding recomputed by an independent
	// algorithm, and the cache hierarchy's inclusivity and replacement-
	// state sanity. A violation aborts the run with a cycle-stamped error.
	// Off by default — the checks walk the ROB and SQ every cycle, plus
	// the cache sets changed since the last pass and one full cache sweep
	// at the end of the run; they exist for the differential-testing
	// harness (internal/diffcheck) and the contract enumeration.
	CheckInvariants bool

	// LinearScheduler selects the reference candidate-gathering path for
	// issue and complete: a full program-order ROB scan testing each
	// occupant's stage and, at issue, re-testing srcReady — the walk the
	// event-driven readyW/execW bitsets replaced. Timing, stats, events
	// and leak reports are identical by
	// construction (the equivalence tests in internal/diffcheck diff the
	// two paths cycle-for-cycle); the linear path exists as the oracle for
	// those tests, not for production use.
	LinearScheduler bool

	// Optimization classes (nil/zero disables each).
	SilentStores *SilentStoreConfig
	Simplifier   *uopt.Simplifier
	Packer       *uopt.Packer
	Reuse        *uopt.ReuseBuffer
	Predictor    uopt.ValuePredictor
	RFC          uopt.RFCMode

	// SQOutOfOrderDequeue lets retired stores dequeue past a blocked
	// older store when their addresses do not overlap (same-address order
	// is always preserved). The default — in-order dequeue, as in the
	// RISC-V BOOM the paper cites — is what gives the amplification
	// gadget its head-of-line blocking; this switch is the ablation for
	// that design choice.
	SQOutOfOrderDequeue bool

	// FuseAddiLoad enables µ-op fusion of an ADDI immediately followed by
	// a load consuming its result (address-generation fusion, the
	// "limited form of continuous optimization implemented today" the
	// paper's Section VI-B cites). The fusion predicate is purely
	// structural — opcodes and register names — so, unlike strength
	// reduction, it creates no data-dependent observable: the safe end of
	// the continuous-optimization spectrum.
	FuseAddiLoad bool

	// Taint, when non-nil, attaches the secret-label shadow engine: µops
	// carry label sets alongside their values, shadow registers/memory
	// are updated in program order at retire/store-perform, and each
	// enabled optimization's trigger condition reports to the taint
	// observers when it reads labeled state (`pandora scan`). The shadow
	// is passive — it never changes timing or architectural results.
	Taint *taint.State

	// CoTenant models an SMT sibling thread sharing the execution ports
	// (Section IV-B3's active attacker: "a receiver in a sibling SMT
	// thread can perform an active attack by setting its own instruction
	// operands such that the packing optimization occurs strictly as a
	// function of a victim instruction's operands").
	CoTenant *CoTenantConfig
}

// CoTenantConfig describes the sibling thread's instruction stream: an
// endless supply of single-cycle integer ops with fixed operand values,
// one ready each cycle.
type CoTenantConfig struct {
	// OperandA and OperandB are the sibling's instruction operands —
	// the attacker-controlled half of the packing predicate.
	OperandA, OperandB uint64
}

// DefaultConfig returns a modest 4-wide out-of-order core resembling the
// paper's simulated baseline.
func DefaultConfig() Config {
	return Config{
		FetchWidth:    4,
		RetireWidth:   4,
		ROBSize:       64,
		IQSize:        32,
		LQSize:        16,
		SQSize:        16,
		PhysRegs:      96,
		ALUPorts:      2,
		LoadPorts:     2,
		StorePorts:    1,
		MulDivUnits:   1,
		ALULat:        1,
		MulLat:        4,
		DivLat:        20,
		BranchPenalty: 6,
		SquashPenalty: 8,
		ForwardLat:    2,
		MaxCycles:     50_000_000,
	}
}

func (c Config) validate(h *cache.Hierarchy) error {
	if h == nil {
		return fmt.Errorf("pipeline: nil cache hierarchy")
	}
	checks := []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth}, {"RetireWidth", c.RetireWidth},
		{"ROBSize", c.ROBSize}, {"IQSize", c.IQSize},
		{"LQSize", c.LQSize}, {"SQSize", c.SQSize},
		{"ALUPorts", c.ALUPorts}, {"LoadPorts", c.LoadPorts},
		{"StorePorts", c.StorePorts}, {"MulDivUnits", c.MulDivUnits},
		{"ALULat", c.ALULat}, {"MulLat", c.MulLat}, {"DivLat", c.DivLat},
		{"ForwardLat", c.ForwardLat},
	}
	for _, ck := range checks {
		if ck.v <= 0 {
			return fmt.Errorf("pipeline: %s must be positive, got %d", ck.name, ck.v)
		}
	}
	if c.PhysRegs < 40 {
		return fmt.Errorf("pipeline: PhysRegs must be at least 40 (32 architectural + headroom), got %d", c.PhysRegs)
	}
	if c.BranchPenalty < 0 || c.SquashPenalty < 0 {
		return fmt.Errorf("pipeline: penalties must be non-negative")
	}
	if c.StoreAddrLat < 0 || c.StoreAddrLat > MaxStoreAddrLat {
		return fmt.Errorf("pipeline: StoreAddrLat must be in [0, %d], got %d", MaxStoreAddrLat, c.StoreAddrLat)
	}
	if sp := c.Speculation; sp != nil {
		if sp.MaxWrongPath < 0 {
			return fmt.Errorf("pipeline: Speculation.MaxWrongPath must be non-negative, got %d", sp.MaxWrongPath)
		}
	}
	if c.MaxCycles <= 0 {
		return fmt.Errorf("pipeline: MaxCycles must be positive")
	}
	return nil
}

// Stats aggregates run statistics. It stays a plain comparable struct —
// the fault campaign and diffcheck compare whole Stats values — but
// direct field writes are confined to this package: external readers use
// Machine.Stats() (a compatibility getter returning a copy) or the named
// counters on Machine.Metrics().
type Stats struct {
	Cycles  int64
	Retired uint64
	Fetched uint64

	BranchMispredicts uint64
	ValueSquashes     uint64
	SquashedUops      uint64

	WrongPathFetched   uint64 // µops fetched down a predicted (wrong) path
	MispredictSquashes uint64 // wrong-path squashes at branch resolution
	SpecForwards       uint64 // predictive store-to-load forwards
	SpecForwardReplays uint64 // spec forwards that failed retire verification

	LoadsForwarded uint64
	LoadsFromCache uint64

	SilentStores    uint64 // stores dequeued silently (Case A)
	NonSilentChecks uint64 // SS-Loads that returned a mismatch (Case B)
	SSLoadNoPort    uint64 // Case C
	SSLoadLate      uint64 // Case D
	SSLoadsIssued   uint64

	ReuseHits      uint64
	Packed         uint64
	RenameStallPRF uint64
	RenameStallSQ  uint64
	RenameStallROB uint64
	RenameStallIQ  uint64
	RenameStallLQ  uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}
