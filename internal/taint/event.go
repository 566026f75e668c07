package taint

import "fmt"

// OptClass identifies which optimization class's trigger condition
// observed secret-dependent state — one per Table I column plus the
// control-flow baseline every machine shares.
type OptClass uint8

const (
	// OptSilentStore: a store-elision check compared the (tainted) store
	// value against memory (Section IV-A, Figure 6 precondition).
	OptSilentStore OptClass = iota
	// OptCompSimp: an ALU/mul/div simplifier consulted tainted operands
	// to pick a latency (zero-skip, trivial ops, early-exit division).
	OptCompSimp
	// OptPipeComp: an operand packer tested tainted operands for
	// narrowness to decide port sharing.
	OptPipeComp
	// OptCompReuse: a value-keyed reuse buffer compared tainted operands
	// against memoized entries.
	OptCompReuse
	// OptValuePred: a load value predictor trained on, or verified
	// against, a tainted loaded value.
	OptValuePred
	// OptRFC: a register-file compressor tested whether a tainted result
	// value duplicates one already at rest in the physical file.
	OptRFC
	// OptPrefetcher: an indirect-memory prefetcher read tainted bytes or
	// formed a prefetch address from them (the IMP/eBPF channel).
	OptPrefetcher
	// OptControlFlow: a branch or indirect-jump predicate was tainted —
	// the classical leak every machine has, reported so scans separate
	// "new" optimization channels from pre-existing ones.
	OptControlFlow
	// OptSpecForward: a store-to-load forwarding predictor speculatively
	// forwarded tainted store data (or decided on a tainted address
	// match) before the store's address resolved — the Store-to-Leak
	// Forwarding substrate (Schwarz et al., 1905.05725).
	OptSpecForward
	// OptWrongPath: a squashed wrong-path load accessed the cache with a
	// secret-derived address — the speculative-vectorization channel
	// (Karuppanan & Mirbagher, 2302.01131). The squash unwinds the ROB,
	// not the cache.
	OptWrongPath
	// OptCacheAddr: a demand load or store formed its cache-visible
	// address from tainted state — the classical cache side channel the
	// constant-time contract forbids. Unlike every other class this is
	// not an optimization's trigger condition but the baseline
	// observation model itself, so it is gated behind State.ObserveAddrs
	// and only the contract checker (internal/kernels) turns it on.
	OptCacheAddr

	numOptClasses // sentinel
)

// NumOptClasses is the number of distinct observer classes.
const NumOptClasses = int(numOptClasses)

func (c OptClass) String() string {
	switch c {
	case OptSilentStore:
		return "silent-store"
	case OptCompSimp:
		return "comp-simplification"
	case OptPipeComp:
		return "pipeline-compression"
	case OptCompReuse:
		return "comp-reuse"
	case OptValuePred:
		return "value-prediction"
	case OptRFC:
		return "rf-compression"
	case OptPrefetcher:
		return "prefetcher"
	case OptControlFlow:
		return "control-flow"
	case OptSpecForward:
		return "spec-forward"
	case OptWrongPath:
		return "wrong-path-load"
	case OptCacheAddr:
		return "cache-addr"
	}
	return fmt.Sprintf("opt(%d)", uint8(c))
}

// MLDRef returns the name of the class's default internal/mld descriptor.
// Observers may substitute a more specific one (e.g. OptCompSimp refines
// to zero_skip_mul or early_exit_div depending on the functional unit).
func (c OptClass) MLDRef() string {
	switch c {
	case OptSilentStore:
		return "silent_stores"
	case OptCompSimp:
		return "trivial_alu"
	case OptPipeComp:
		return "operand_packing"
	case OptCompReuse:
		return "instruction_reuse"
	case OptValuePred:
		return "v_prediction"
	case OptRFC:
		return "rf_compression"
	case OptPrefetcher:
		return "im3l_prefetcher"
	case OptControlFlow:
		return "branch_direction"
	case OptSpecForward:
		return "store_to_leak"
	case OptWrongPath:
		return "spec_vectorization"
	case OptCacheAddr:
		return "cache_address"
	}
	return ""
}

// LeakEvent records one occurrence of an optimization trigger condition
// depending on tainted state. Cycle and PC are -1 when the observer has
// no pipeline context (e.g. prefetcher training off the demand stream).
type LeakEvent struct {
	Cycle  int64
	PC     int64
	Opt    OptClass
	Labels LabelSet
	// MLDRef names the internal/mld descriptor this event instantiates.
	MLDRef string
	// Detail is free-form context (address, functional unit, ...).
	Detail string
}

// Recorder accumulates leak events with a storage cap: counts are always
// exact, but at most Limit events are retained verbatim. First keeps
// each class's first event whatever the cap, so a caller that needs only
// the classes present and their first occurrences can set Limit to 0.
type Recorder struct {
	Limit   int
	Events  []LeakEvent
	Counts  [numOptClasses]uint64
	Dropped uint64
	// First[c] is class c's first recorded event; valid when Counts[c] > 0.
	First [numOptClasses]LeakEvent
}

// DefaultEventLimit bounds retained events per scan.
const DefaultEventLimit = 4096

// NewRecorder returns a recorder with the default storage cap.
func NewRecorder() *Recorder { return &Recorder{Limit: DefaultEventLimit} }

// Record stores ev (subject to the cap) and bumps its class counter.
func (r *Recorder) Record(ev LeakEvent) {
	if r == nil {
		return
	}
	if int(ev.Opt) < len(r.Counts) {
		if r.Counts[ev.Opt] == 0 {
			r.First[ev.Opt] = ev
		}
		r.Counts[ev.Opt]++
	}
	if len(r.Events) < r.Limit {
		r.Events = append(r.Events, ev)
	} else {
		r.Dropped++
	}
}

// keeps reports whether Record would retain an event of class c, as the
// class's first event or below Limit.
func (r *Recorder) keeps(c OptClass) bool {
	return r.Counts[c] == 0 || len(r.Events) < r.Limit
}

// Total returns the exact number of events recorded across all classes.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for _, c := range r.Counts {
		n += c
	}
	return n
}

// CountOf returns the exact event count for one class.
func (r *Recorder) CountOf(c OptClass) uint64 {
	if r == nil || int(c) >= len(r.Counts) {
		return 0
	}
	return r.Counts[c]
}
