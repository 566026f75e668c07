package pipeline

import (
	"pandora/internal/isa"
	"pandora/internal/taint"
)

// uopStage is a µop's position in its lifecycle.
type uopStage uint8

const (
	stDispatched uopStage = iota // in ROB/IQ, waiting to issue
	stExecuting                  // issued, completing at doneC
	stDone                       // result available
	stRetired
)

// uop is one dynamic instruction in flight, carrying both the oracle's
// architectural facts (for verification and fetch steering) and the
// timing model's own computed values.
type uop struct {
	seq   uint64 // dynamic sequence number (program order)
	pc    int64
	inst  isa.Inst
	class isa.Class

	// t is the decoded template for this PC: the per-program-immutable
	// facts (register names, immediate rule, static prediction) fetch
	// stamps instead of re-deriving. Valid for the µop's whole lifetime,
	// including across squash/replay (the PC does not change).
	t *uopTemplate

	// slot is the µop's physical ROB ring slot — the bit index in the
	// scheduler masks. Valid while the µop is in the ROB.
	slot int

	// refs counts the live references that can outlast the µop's ROB
	// residence (see pool.go); a retired µop recycles when it hits zero.
	refs int32
	// pooled marks a µop currently in the free list (double-free guard).
	pooled bool
	// sqe is the store's queue entry (stores only; nil once released).
	sqe *sqEntry

	// Oracle facts, captured when the control-flow oracle executed this
	// instruction: the correct-path next PC, branch outcome, and (for
	// dest-writing ops) the correct result for retire-time verification.
	oracleResult uint64
	oracleTaken  bool
	nextPC       int64

	// Fetch-time prediction bookkeeping.
	predictedTaken bool
	mispredicted   bool // direction prediction was wrong (or JALR)

	// wrongPath marks a µop fetched down the predicted path of an
	// unresolved mispredicted branch: it carries template facts only (the
	// oracle never executed it), must never retire, and is discarded —
	// not replayed — at the squash.
	wrongPath bool
	// specForwarded marks a load that consumed predictively forwarded
	// store data (Speculation.StLF); retire verifies it against the
	// resolved store queue and replays on a mismatch.
	specForwarded bool
	// specData marks a µop whose value may derive from an unverified
	// speculative forward (the forwarded load itself, and transitively
	// any consumer that latched such a producer). Oracle-divergence
	// invariants are deferred for these µops: a wrong value is resolved
	// by the forwarding replay, not a machine failure.
	specData bool
	// predData marks a µop that read an unverified value prediction (the
	// predicted load's value, or transitively a consumer of one). A wrong
	// prediction squashes it when the load completes, which may be after
	// it computed a branch direction or JALR target from the predicted
	// value; its control-flow check therefore waits for retire, where
	// every prediction it read has been verified. Cleared on replay.
	predData bool

	// Pipeline-computed values.
	srcVals  [2]uint64 // operand values read at issue
	result   uint64    // destination value (valid once done)
	addr     uint64    // memory address (loads/stores, valid once executed)
	memWidth int
	storeVal uint64 // store data (valid once executed)

	// Dataflow: producers of this µop's source registers still in flight
	// at rename time (nil entries mean the committed register file value
	// is current).
	prod [2]*uop

	// tainted marks values derived from RDCYCLE: correct in the pipeline,
	// unverifiable against the oracle.
	tainted bool

	// labels is the secret-label set of this µop's value (Config.Taint):
	// the union of its source labels, latched at issue like srcVals, plus
	// memory labels for loads and the sticky control set at retire.
	labels taint.LabelSet
	// obsMask dedupes per-class leak events for trigger conditions that
	// are re-evaluated every cycle the µop waits to issue.
	obsMask uint8

	stage   uopStage
	fetchC  int64
	issueC  int64
	doneC   int64
	retireC int64

	// Value prediction state (loads). predicted is live while consumers
	// may use the prediction; wasPredicted survives until retire for
	// predictor training/accounting.
	predicted    bool
	wasPredicted bool
	predictedVal uint64

	// reused marks a computation-reuse hit (skipped the functional unit).
	reused bool
	// fusedProd, when non-nil, is the ADDI this load is µ-op-fused with:
	// the pair issues as one, so the load may read the ADDI's result the
	// cycle it executes instead of waiting for completion.
	fusedProd *uop
	// packed marks an operand-packing co-issue (pipeline compression).
	packed bool
	// sharedReg marks that RFC returned this µop's physical register to
	// the free pool at writeback.
	sharedReg bool
	// renamed/wroteback track PRF accounting for squash undo.
	renamed   bool
	wroteback bool

	// stuck marks a µop whose issue wakeup was dropped by fault injection:
	// the scheduler never reconsiders it, so once it is oldest the machine
	// livelocks (the watchdog's canonical prey). Cleared on replay.
	stuck bool

	// replayed counts how many times this µop was squashed and replayed.
	replayed int
}

// obsMask bits: one per issue-loop observer that would otherwise fire
// again every cycle the µop retries issue.
const (
	obsSimplify uint8 = 1 << iota
	obsPack
	obsReuse
)

// writesReg reports whether the µop produces a register result.
func (u *uop) writesReg() bool {
	return u.t.writesReg
}

// srcReg returns the architectural name of source i (X0 when the operand
// is absent or an immediate).
func (u *uop) srcReg(i int) isa.Reg {
	if i == 0 {
		return u.t.src1
	}
	return u.t.src2
}

// srcReady reports whether source i is available at cycle c, honoring
// value-predicted producers and µ-op fusion.
func (u *uop) srcReady(i int, c int64) bool {
	p := u.prod[i]
	if p == nil {
		return true
	}
	if p.stage == stDone || p.stage == stRetired {
		return p.doneC <= c
	}
	// A fused pair issues as one µop: the load may proceed the same
	// cycle its ADDI half issues (the result is internally forwarded;
	// the issue scan visits the older half first).
	if p == u.fusedProd && p.stage == stExecuting && p.issueC <= c {
		return true
	}
	// A value-predicted load's consumers may proceed with the predicted
	// value one cycle after the load dispatched.
	if p.predicted {
		return p.fetchC < c
	}
	return false
}

// srcValue returns the value of source i at issue time. pre: srcReady.
func (u *uop) srcValue(i int, committed *[isa.NumRegs]uint64) uint64 {
	p := u.prod[i]
	if p == nil {
		return committed[u.srcReg(i)]
	}
	if p.stage == stDone || p.stage == stRetired {
		return p.result
	}
	if p == u.fusedProd && p.stage == stExecuting {
		return p.result // ALU results are computed at issue
	}
	return p.predictedVal
}

// srcLabels returns the secret labels of source i, mirroring srcValue's
// resolution: committed shadow register, in-flight producer labels, or —
// for a value-predicted producer whose real result is not available —
// the shadow of the predictor's table entry for that load PC.
func (u *uop) srcLabels(i int, st *taint.State) taint.LabelSet {
	p := u.prod[i]
	if p == nil {
		return st.Regs[u.srcReg(i)]
	}
	if p.stage == stDone || p.stage == stRetired {
		return p.labels
	}
	if p == u.fusedProd && p.stage == stExecuting {
		return p.labels
	}
	return st.Pred[p.pc]
}

// srcTainted reports whether source i carries a RDCYCLE-derived value.
func (u *uop) srcTainted(i int, committedTaint *[isa.NumRegs]bool) bool {
	p := u.prod[i]
	if p == nil {
		return committedTaint[u.srcReg(i)]
	}
	return p.tainted
}

// ssState tracks the silent-store check for one store-queue entry
// (Figure 4 of the paper).
type ssState uint8

const (
	ssNone     ssState = iota // no SS-Load issued yet
	ssPending                 // SS-Load in flight
	ssReturned                // SS-Load returned; ssMatch says if values matched
	ssFailed                  // no free load port (Case C) — store is not a candidate
)

// sqEntry is one store-queue slot. Entries are allocated at rename (so a
// full SQ stalls rename — the amplification gadget's lever) and released
// at dequeue.
type sqEntry struct {
	u         *uop
	addrReady bool

	ss        ssState
	ssReturnC int64
	ssValue   uint64 // value the SS-Load read
	ssMatch   bool
	// ssLabels is the secret-label set of the bytes the SS-Load read —
	// the "old value" side of the silent-store trigger condition.
	ssLabels taint.LabelSet

	// Dequeue-in-progress state: the store was sent to the cache and
	// completes (writes memory, releases the slot) at dequeueDoneC.
	dequeuing    bool
	dequeueDoneC int64

	// headSeen records the reach-SQ-head event exactly once.
	headSeen bool
}
