package uopt

// Predictor is a confidence-thresholded last-value predictor for load
// results (Section IV-C3, Figure 3 Example 7). Nearly all proposed value
// predictors are threshold based: a prediction is only consumed once the
// per-PC confidence counter reaches the threshold; a misprediction squashes
// the pipeline and resets confidence, which is the attacker-visible event.
type Predictor struct {
	// Threshold is the confidence required before predictions are used.
	Threshold int
	// MaxConf saturates the confidence counter.
	MaxConf int

	// table holds entries by value: a map of pointers would cost one
	// heap object per load PC.
	table map[int64]predEntry

	Predictions    uint64 // confident predictions issued
	Correct        uint64
	Mispredictions uint64
}

type predEntry struct {
	last uint64
	conf int
}

// NewPredictor returns a predictor with the given confidence threshold
// (minimum 1) and a saturation of threshold+4.
func NewPredictor(threshold int) *Predictor {
	if threshold < 1 {
		threshold = 1
	}
	return &Predictor{
		Threshold: threshold,
		MaxConf:   threshold + 4,
		table:     make(map[int64]predEntry),
	}
}

// Predict returns the predicted result for the load at pc and whether the
// prediction is confident enough to consume.
func (p *Predictor) Predict(pc int64) (uint64, bool) {
	if p == nil {
		return 0, false
	}
	e, ok := p.table[pc]
	if !ok || e.conf < p.Threshold {
		return 0, false
	}
	p.Predictions++
	return e.last, true
}

// Resolve updates predictor state with the actual value once the load
// completes. predicted reports whether a confident prediction was issued
// for this dynamic instance; the return value reports whether that
// prediction was wrong (a squash is required).
func (p *Predictor) Resolve(pc int64, actual uint64, predicted bool, predictedVal uint64) (mispredict bool) {
	if p == nil {
		return false
	}
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
		if e.conf < p.MaxConf {
			e.conf++
		}
	} else {
		e.last = actual
		e.conf = 0
	}
	p.table[pc] = e
	return mispredict
}

// Confidence returns the current confidence for pc (0 if untracked);
// exported for tests and the leakage analyzer.
func (p *Predictor) Confidence(pc int64) int {
	return p.table[pc].conf
}

// Squash implements ValuePredictor; the last-value predictor keeps no
// speculative in-flight state.
func (p *Predictor) Squash() {}

// Flush clears all predictor state.
func (p *Predictor) Flush() { clear(p.table) }
