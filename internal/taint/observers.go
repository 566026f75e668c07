package taint

import (
	"fmt"

	"pandora/internal/obs"
)

// Leakage observers: one entry point per optimization class. Each is
// called from the point in the pipeline (or prefetcher) where the
// optimization evaluates its trigger condition, with the union of the
// labels that condition read. All observers are nil-safe and drop
// untainted calls, so instrumentation sites stay unconditional.

func (st *State) observe(c OptClass, cycle, pc int64, mldRef, detail string, labels LabelSet) {
	if st == nil || st.Rec == nil || !labels.Any() {
		return
	}
	if mldRef == "" {
		mldRef = c.MLDRef()
	}
	st.Rec.Record(LeakEvent{Cycle: cycle, PC: pc, Opt: c, Labels: labels, MLDRef: mldRef, Detail: detail})
	if st.Probe != nil {
		st.Probe.Emit(obs.Event{
			Cycle: cycle, Kind: obs.KindTaintLeak, Track: obs.TrackTaint,
			PC: pc, Arg: int64(labels), Detail: c.String(),
		})
	}
}

// ObserveSilentStore reports a store-elision comparison ("new value equals
// old value") over tainted data. lsq selects the LSQ-compare descriptor.
func (st *State) ObserveSilentStore(cycle, pc int64, lsq bool, labels LabelSet) {
	ref := "silent_stores"
	detail := "read-port-stealing verify load"
	if lsq {
		ref = "silent_stores_lsq"
		detail = "LSQ same-address compare"
	}
	st.observe(OptSilentStore, cycle, pc, ref, detail, labels)
}

// ObserveSimplify reports a computation-simplification latency choice
// (zero-skip multiply, trivial ALU op, early-exit division) made from
// tainted operands. mldRef selects the specific descriptor.
func (st *State) ObserveSimplify(cycle, pc int64, mldRef string, labels LabelSet) {
	st.observe(OptCompSimp, cycle, pc, mldRef, "operand-dependent latency", labels)
}

// ObservePack reports an operand-packing narrowness test over tainted
// operands.
func (st *State) ObservePack(cycle, pc int64, labels LabelSet) {
	st.observe(OptPipeComp, cycle, pc, "", "narrow-operand co-issue test", labels)
}

// ObserveReuse reports a value-keyed reuse-buffer lookup with tainted
// operands (the Sn name-keyed scheme never observes values and must not
// call this).
func (st *State) ObserveReuse(cycle, pc int64, labels LabelSet) {
	st.observe(OptCompReuse, cycle, pc, "", "value-keyed lookup", labels)
}

// ObserveValuePred reports a value predictor trained on / verified
// against a tainted loaded value.
func (st *State) ObserveValuePred(cycle, pc int64, labels LabelSet) {
	st.observe(OptValuePred, cycle, pc, "", "prediction table update", labels)
}

// ObserveRFC reports a register-file compression duplicate-value test on
// a tainted result.
func (st *State) ObserveRFC(cycle, pc int64, labels LabelSet) {
	st.observe(OptRFC, cycle, pc, "", "duplicate-value test at writeback", labels)
}

// ObservePrefetch reports a prefetcher reading tainted bytes or forming
// an address from a tainted value. There is no pipeline context: the
// event carries the address instead.
func (st *State) ObservePrefetch(addr uint64, detail string, labels LabelSet) {
	st.observe(OptPrefetcher, -1, -1, "", fmt.Sprintf("%s @%#x", detail, addr), labels)
}

// ObserveControlFlow reports a tainted branch/indirect-jump predicate —
// the baseline channel, recorded so scans can distinguish optimization
// leaks from classical PC leaks.
func (st *State) ObserveControlFlow(cycle, pc int64, labels LabelSet) {
	st.observe(OptControlFlow, cycle, pc, "", "tainted predicate", labels)
}

// ObserveSpecForward reports a predictive store-to-load forward whose
// forwarded data or address-match outcome is tainted: whether the load
// issues fast (forwarded) and whether retire later replays it are both
// functions of that state.
func (st *State) ObserveSpecForward(cycle, pc int64, labels LabelSet) {
	st.observe(OptSpecForward, cycle, pc, "", "predictive store-to-load forward", labels)
}

// ObserveWrongPathLoad reports a wrong-path load forming its address from
// tainted state. The µop will be squashed, but the cache access is real —
// a squashed leak is still a leak.
func (st *State) ObserveWrongPathLoad(cycle, pc int64, labels LabelSet) {
	st.observe(OptWrongPath, cycle, pc, "", "squashed load's cache access", labels)
}

// ObserveCacheAddr reports a demand access whose address was computed
// from tainted state — the classical data-cache channel every machine
// has. labels must be the address-formation labels only, never the
// data's: a constant-time kernel is free to store secret bytes to a
// public address. No-op unless the state was armed with ObserveAddrs,
// so scenarios studying only the optimization channels are unaffected.
// An untainted call returns before formatting its detail: every armed
// load and store makes one.
func (st *State) ObserveCacheAddr(cycle, pc int64, addr uint64, labels LabelSet) {
	if st == nil || !st.ObserveAddrs || st.Rec == nil || !labels.Any() {
		return
	}
	st.observe(OptCacheAddr, cycle, pc, "", fmt.Sprintf("tainted access address %#x", addr), labels)
}
