package uopt

// StridePredictor predicts value[n+1] = value[n] + stride, with the same
// confidence-threshold discipline as the last-value predictor. It covers
// the pointer-increment and induction-variable loads a last-value scheme
// misses.
type StridePredictor struct {
	Threshold int

	table map[int64]strideEntry // by value, as Predictor's

	Correct        uint64
	Mispredictions uint64
}

type strideEntry struct {
	last   uint64
	stride uint64
	conf   int
	seen   bool
	// pending counts confident predictions issued for instances not yet
	// committed; prediction n-ahead is last + (pending+1)*stride, which
	// is what lets the predictor cover several in-flight loop iterations.
	pending int
}

// NewStridePredictor returns a stride predictor with the given confidence
// threshold (minimum 1).
func NewStridePredictor(threshold int) *StridePredictor {
	p := new(StridePredictor)
	p.Reset(threshold)
	return p
}

// Reset returns p, which may be a zero StridePredictor, to
// NewStridePredictor(threshold)'s state, keeping the table's storage.
func (p *StridePredictor) Reset(threshold int) {
	if p.table == nil {
		p.table = make(map[int64]strideEntry)
	}
	clear(p.table)
	*p = StridePredictor{Threshold: max(threshold, 1), table: p.table}
}

// Predict returns a confident prediction for the load at pc, if any,
// counting it as in flight until Resolve.
func (p *StridePredictor) Predict(pc int64) (uint64, bool) {
	e, ok := p.table[pc]
	if !ok || e.conf < p.Threshold {
		return 0, false
	}
	e.pending++
	p.table[pc] = e
	return e.last + e.stride*uint64(e.pending), true
}

// Resolve trains the entry for pc on the committed value and reports
// whether a consumed prediction was wrong.
func (p *StridePredictor) Resolve(pc int64, actual uint64, predicted bool, predictedVal uint64) bool {
	e := p.table[pc]
	mispredict := false
	if predicted {
		if e.pending > 0 {
			e.pending--
		}
		if predictedVal == actual {
			p.Correct++
		} else {
			p.Mispredictions++
			mispredict = true
		}
	}
	stride := actual - e.last
	if e.seen && stride == e.stride {
		if e.conf < p.Threshold+confHeadroom {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
		e.pending = 0
	}
	e.last = actual
	e.seen = true
	p.table[pc] = e
	return mispredict
}

// Squash discards speculative in-flight state on a pipeline squash: the
// pending counters reset.
func (p *StridePredictor) Squash() {
	for pc, e := range p.table {
		e.pending = 0
		p.table[pc] = e
	}
}
