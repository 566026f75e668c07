package uopt

// VPScheme selects the value predictor: none (VPOff, the zero value),
// last-value (Predictor) or stride (StridePredictor).
type VPScheme uint8

// The value-prediction schemes.
const (
	VPOff VPScheme = iota
	VPLastValue
	VPStride
)

// VPConfig describes a value predictor by value: its scheme and its
// confidence threshold (below 1 means 1). The zero value is off.
type VPConfig struct {
	Scheme    VPScheme
	Threshold int
}

// confHeadroom is how far a confidence counter saturates above its
// threshold.
const confHeadroom = 4

// Predictor is a confidence-thresholded last-value predictor for load
// results (Section IV-C3, Figure 3 Example 7). Nearly all proposed value
// predictors are threshold based: a prediction is only consumed once the
// per-PC confidence counter reaches the threshold; a misprediction squashes
// the pipeline and resets confidence, which is the attacker-visible event.
// The counter saturates at Threshold+4.
type Predictor struct {
	// Threshold is the confidence required before predictions are used.
	Threshold int

	// table holds entries by value: a map of pointers would cost one
	// heap object per load PC.
	table map[int64]predEntry

	Correct        uint64 // resolved predictions that were right
	Mispredictions uint64
}

type predEntry struct {
	last uint64
	conf int
}

// NewPredictor returns a predictor with the given confidence threshold
// (minimum 1).
func NewPredictor(threshold int) *Predictor {
	p := new(Predictor)
	p.Reset(threshold)
	return p
}

// Reset returns p, which may be a zero Predictor, to
// NewPredictor(threshold)'s state, keeping the table's storage.
func (p *Predictor) Reset(threshold int) {
	if p.table == nil {
		p.table = make(map[int64]predEntry)
	}
	clear(p.table)
	*p = Predictor{Threshold: max(threshold, 1), table: p.table}
}

// Predict returns the predicted result for the load at pc and whether the
// prediction is confident enough to consume.
func (p *Predictor) Predict(pc int64) (uint64, bool) {
	e, ok := p.table[pc]
	if !ok || e.conf < p.Threshold {
		return 0, false
	}
	return e.last, true
}

// Resolve updates predictor state with the actual value once the load
// completes. predicted reports whether a confident prediction was issued
// for this dynamic instance; the return value reports whether that
// prediction was wrong (a squash is required).
func (p *Predictor) Resolve(pc int64, actual uint64, predicted bool, predictedVal uint64) (mispredict bool) {
	e := p.table[pc]
	if predicted {
		if predictedVal == actual {
			p.Correct++
		} else {
			p.Mispredictions++
			mispredict = true
		}
	}
	if e.last == actual {
		if e.conf < p.Threshold+confHeadroom {
			e.conf++
		}
	} else {
		e.last = actual
		e.conf = 0
	}
	p.table[pc] = e
	return mispredict
}

// Squash discards speculative in-flight state on a pipeline squash; the
// last-value predictor keeps none.
func (p *Predictor) Squash() {}
