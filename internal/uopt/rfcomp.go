package uopt

// RFCMode selects which values the register-file compressor can share
// (Section IV-D1, Figure 3 Example 8).
type RFCMode uint8

const (
	// RFCOff disables compression.
	RFCOff RFCMode = iota
	// RFCZeroOne shares only the common values 0 and 1 [Balakrishnan &
	// Sohi, MICRO'03 0/1 variant].
	RFCZeroOne
	// RFCAnyValue shares any duplicated value [physical register reuse,
	// Jourdan et al. MICRO'98].
	RFCAnyValue
)

func (m RFCMode) String() string {
	switch m {
	case RFCZeroOne:
		return "rfc-0/1"
	case RFCAnyValue:
		return "rfc-any"
	}
	return "rfc-off"
}

// ValueFile tracks which result values are currently live in the physical
// register file so the renamer can detect sharing opportunities: when an
// instruction produces a value already present, its freshly allocated
// physical register is returned to the free pool immediately, relieving
// rename pressure. The timing consequence — fewer rename stalls — is a
// function of register *values at rest*, which is what makes the
// optimization leak (Table I: register file transitions S→U under RFC).
type ValueFile struct {
	Mode RFCMode
	refs map[uint64]int
}

// NewValueFile returns an empty tracker.
func NewValueFile(mode RFCMode) *ValueFile {
	return &ValueFile{Mode: mode, refs: make(map[uint64]int)}
}

// Reset returns vf, which may be a zero ValueFile, to NewValueFile(mode)'s
// state, keeping the map's storage.
func (vf *ValueFile) Reset(mode RFCMode) {
	if vf.refs == nil {
		vf.refs = make(map[uint64]int)
	}
	clear(vf.refs)
	vf.Mode = mode
}

func (vf *ValueFile) shareable(v uint64) bool {
	switch vf.Mode {
	case RFCZeroOne:
		return v <= 1
	case RFCAnyValue:
		return true
	}
	return false
}

// Produce records a new live result value and reports whether it can share
// an already-present register (true means the allocated physical register
// may be released back to the free pool right away).
func (vf *ValueFile) Produce(v uint64) (shared bool) {
	if vf == nil || vf.Mode == RFCOff {
		return false
	}
	if vf.shareable(v) && vf.refs[v] > 0 {
		vf.refs[v]++
		return true
	}
	vf.refs[v]++
	return false
}

// Release records that a live value was overwritten/freed and reports
// whether its physical register actually returns to the pool (false when
// other references still share it).
func (vf *ValueFile) Release(v uint64) (freed bool) {
	if vf == nil || vf.Mode == RFCOff {
		return true
	}
	n := vf.refs[v]
	if n <= 1 {
		delete(vf.refs, v)
		return true
	}
	vf.refs[v] = n - 1
	return false
}

// Live returns the number of registers holding value v.
func (vf *ValueFile) Live(v uint64) int {
	if vf == nil {
		return 0
	}
	return vf.refs[v]
}
