package uopt

// ValuePredictor abstracts the value-prediction schemes the pipeline can
// host. The paper notes proposals "ranging from simple last-value and
// stride predictors to hybrid predictors — nearly all threshold based".
type ValuePredictor interface {
	// Predict returns a confident prediction for the load at pc, if any.
	// Called at dispatch; implementations may track speculative in-flight
	// state.
	Predict(pc int64) (uint64, bool)
	// Resolve updates state with the actual value and reports whether a
	// consumed prediction was wrong. Called at commit, once per dynamic
	// instance, in program order.
	Resolve(pc int64, actual uint64, predicted bool, predictedVal uint64) bool
	// Squash discards speculative in-flight prediction state (called on
	// a pipeline squash).
	Squash()
	// Flush clears predictor state.
	Flush()
}

var (
	_ ValuePredictor = (*Predictor)(nil)
	_ ValuePredictor = (*StridePredictor)(nil)
)

// StridePredictor predicts value[n+1] = value[n] + stride, with the same
// confidence-threshold discipline as the last-value predictor. It covers
// the pointer-increment and induction-variable loads a last-value scheme
// misses.
type StridePredictor struct {
	Threshold int
	MaxConf   int

	table map[int64]strideEntry // by value, as Predictor's

	Predictions    uint64
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
	if threshold < 1 {
		threshold = 1
	}
	return &StridePredictor{
		Threshold: threshold,
		MaxConf:   threshold + 4,
		table:     make(map[int64]strideEntry),
	}
}

// Predict implements ValuePredictor.
func (p *StridePredictor) Predict(pc int64) (uint64, bool) {
	e, ok := p.table[pc]
	if !ok || e.conf < p.Threshold {
		return 0, false
	}
	p.Predictions++
	e.pending++
	p.table[pc] = e
	return e.last + e.stride*uint64(e.pending), true
}

// Resolve implements ValuePredictor.
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
		if e.conf < p.MaxConf {
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

// Squash implements ValuePredictor: in-flight speculative predictions are
// gone, so the pending counters reset.
func (p *StridePredictor) Squash() {
	for pc, e := range p.table {
		e.pending = 0
		p.table[pc] = e
	}
}

// Flush implements ValuePredictor.
func (p *StridePredictor) Flush() { clear(p.table) }
