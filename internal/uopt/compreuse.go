package uopt

// ReuseScheme selects whether and how the computation-reuse buffer is
// keyed, following the variants of Sodani & Sohi's dynamic instruction
// reuse [ISCA'97] (Sections IV-C2 and VI-A3 of the paper). The zero
// value, ReuseOff, disables reuse.
//
//   - SchemeSv keys entries by PC and *operand values*. Highest reuse rate,
//     but a reuse hit reveals that the current operand values equal the
//     memoized ones — the security problem the paper analyzes.
//   - SchemeSn keys entries by PC and operand *register names*; an entry is
//     invalidated whenever one of its source registers is overwritten. A
//     hit reveals only which static instruction is executing (control
//     flow), which constant-time code already treats as public.
type ReuseScheme uint8

const (
	// ReuseOff disables computation reuse.
	ReuseOff ReuseScheme = iota
	// SchemeSv is value-keyed reuse.
	SchemeSv
	// SchemeSn is name-keyed reuse.
	SchemeSn
)

func (s ReuseScheme) String() string {
	switch s {
	case SchemeSv:
		return "Sv"
	case SchemeSn:
		return "Sn"
	}
	return "off"
}

// ReuseEntries is the reuse buffer's size: 64 entries, direct-mapped on
// PC.
const ReuseEntries = 64

type reuseEntry struct {
	valid  bool
	pc     int64
	a, b   uint64 // operand values (Sv)
	ra, rb uint8  // operand register names (Sn)
	result uint64
}

// ReuseBuffer is a direct-mapped hardware memoization table (Figure 3,
// Example 6). Lookups on a hit skip the functional unit entirely; this is
// non-speculative because a hit guarantees the memoized result is correct
// for the keying discipline in use.
type ReuseBuffer struct {
	Scheme  ReuseScheme
	entries [ReuseEntries]reuseEntry
}

// NewReuseBuffer returns an empty buffer keyed by scheme. The zero
// ReuseBuffer with Scheme set is the same empty buffer.
func NewReuseBuffer(scheme ReuseScheme) *ReuseBuffer {
	return &ReuseBuffer{Scheme: scheme}
}

func (rb *ReuseBuffer) slot(pc int64) *reuseEntry {
	return &rb.entries[uint64(pc)%ReuseEntries]
}

// Lookup consults the buffer for the dynamic instruction at pc with
// operand values a,b read from registers ra,rb. On a hit the memoized
// result is returned and the functional unit can be skipped.
func (rb *ReuseBuffer) Lookup(pc int64, a, b uint64, ra, rb2 uint8) (uint64, bool) {
	e := rb.slot(pc)
	if !e.valid || e.pc != pc {
		return 0, false
	}
	switch rb.Scheme {
	case SchemeSv:
		if e.a == a && e.b == b {
			return e.result, true
		}
	case SchemeSn:
		if e.ra == ra && e.rb == rb2 {
			return e.result, true
		}
	}
	return 0, false
}

// Update memoizes the result of the instruction at pc.
func (rb *ReuseBuffer) Update(pc int64, a, b uint64, ra, rb2 uint8, result uint64) {
	*rb.slot(pc) = reuseEntry{valid: true, pc: pc, a: a, b: b, ra: ra, rb: rb2, result: result}
}

// InvalidateReg drops every Sn entry sourced from register r; called when
// r is overwritten. Sv entries are value-keyed and unaffected.
func (rb *ReuseBuffer) InvalidateReg(r uint8) {
	if rb.Scheme != SchemeSn {
		return
	}
	for i := range rb.entries {
		e := &rb.entries[i]
		if e.valid && (e.ra == r || e.rb == r) {
			e.valid = false
		}
	}
}

// Flush invalidates the whole buffer.
func (rb *ReuseBuffer) Flush() {
	for i := range rb.entries {
		rb.entries[i].valid = false
	}
}
