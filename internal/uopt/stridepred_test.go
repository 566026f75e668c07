package uopt

import "testing"

func TestStridePredictorBasics(t *testing.T) {
	p := NewStridePredictor(0) // clamps to 1
	if p.Threshold != 1 {
		t.Errorf("threshold = %d", p.Threshold)
	}
	// Train stride 5.
	for _, v := range []uint64{10, 15, 20} {
		p.Resolve(3, v, false, 0)
	}
	v, ok := p.Predict(3)
	if !ok || v != 25 {
		t.Fatalf("Predict = %d, %v; want 25", v, ok)
	}
	// In-flight pending: a second prediction before the first resolves
	// looks two strides ahead.
	v2, ok := p.Predict(3)
	if !ok || v2 != 30 {
		t.Errorf("second in-flight Predict = %d, want 30", v2)
	}
	if mis := p.Resolve(3, 25, true, v); mis {
		t.Error("correct prediction flagged")
	}
	if mis := p.Resolve(3, 30, true, v2); mis {
		t.Error("correct second prediction flagged")
	}
	if p.Correct != 2 || p.Mispredictions != 0 {
		t.Errorf("stats: %+v", p)
	}
}

func TestStridePredictorSquashResetsPending(t *testing.T) {
	p := NewStridePredictor(1)
	for _, v := range []uint64{8, 16, 24} {
		p.Resolve(1, v, false, 0)
	}
	p.Predict(1)
	p.Predict(1)
	p.Squash()
	v, ok := p.Predict(1)
	if !ok || v != 32 {
		t.Errorf("post-squash Predict = %d, want 32 (pending reset)", v)
	}
}

func TestStridePredictorFlushAndUnknownPC(t *testing.T) {
	p := NewStridePredictor(1)
	if _, ok := p.Predict(42); ok {
		t.Error("prediction for unseen pc")
	}
	p.Resolve(1, 10, false, 0)
	p.Resolve(1, 20, false, 0)
	p.Resolve(1, 30, false, 0)
	p.Reset(3)
	if _, ok := p.Predict(1); ok || p.Threshold != 3 {
		t.Errorf("prediction survived Reset (threshold %d)", p.Threshold)
	}
}

func TestStridePredictorZeroStride(t *testing.T) {
	// Constant values are a zero stride: behaves like last-value.
	p := NewStridePredictor(1)
	p.Resolve(9, 7, false, 0)
	p.Resolve(9, 7, false, 0)
	p.Resolve(9, 7, false, 0)
	v, ok := p.Predict(9)
	if !ok || v != 7 {
		t.Errorf("constant-value prediction = %d, %v", v, ok)
	}
}

func TestLastValuePredictorSquashNoop(t *testing.T) {
	p := NewPredictor(1)
	p.Resolve(1, 5, false, 0)
	p.Resolve(1, 5, false, 0)
	p.Squash() // must not clear confidence
	if _, ok := p.Predict(1); !ok {
		t.Error("Squash cleared last-value state")
	}
	p.Reset(1)
	if _, ok := p.Predict(1); ok || p.Correct != 0 {
		t.Error("Reset did not clear state")
	}
	if p.table[999].conf != 0 {
		t.Error("confidence for unseen pc")
	}
}

func TestStrengthReductionUnit(t *testing.T) {
	s := Simplifier{StrengthReduction: true}
	if lat, ok := s.SimplifiedLatency(KindMul, 64, 999, 4); !ok || lat != 1 {
		t.Errorf("mul by 64: %d %v", lat, ok)
	}
	if lat, ok := s.SimplifiedLatency(KindMul, 999, 6, 4); ok || lat != 4 {
		t.Errorf("mul by 6: %d %v", lat, ok)
	}
	if _, ok := s.SimplifiedLatency(KindMul, 0, 0, 4); ok {
		t.Error("zero is not a power of two for strength reduction")
	}
}

func TestStringers(t *testing.T) {
	cases := map[string]string{
		ReuseOff.String():    "off",
		SchemeSv.String():    "Sv",
		SchemeSn.String():    "Sn",
		RFCOff.String():      "rfc-off",
		RFCZeroOne.String():  "rfc-0/1",
		RFCAnyValue.String(): "rfc-any",
		KindSimple.String():  "simple",
		KindMul.String():     "mul",
		KindDiv.String():     "div",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestValueFileLiveNil(t *testing.T) {
	var vf *ValueFile
	if vf.Live(5) != 0 {
		t.Error("nil ValueFile Live")
	}
	vf2 := NewValueFile(RFCZeroOne)
	vf2.Produce(0)
	if vf2.Live(0) != 1 || vf2.Live(9) != 0 {
		t.Error("Live counts wrong")
	}
}

func TestReuseBufferDefaults(t *testing.T) {
	// Direct-mapped over ReuseEntries slots: pc and pc+ReuseEntries
	// share a slot, neighbouring PCs do not.
	rb := NewReuseBuffer(SchemeSv)
	rb.Update(5, 1, 1, 1, 1, 9)
	rb.Update(6, 1, 1, 1, 1, 8)
	if v, ok := rb.Lookup(5, 1, 1, 1, 1); !ok || v != 9 {
		t.Errorf("neighbour evicted pc 5: %d %v", v, ok)
	}
	rb.Update(5+ReuseEntries, 1, 1, 1, 1, 7)
	if _, ok := rb.Lookup(5, 1, 1, 1, 1); ok {
		t.Error("pc 5 survived an update to the slot it shares")
	}
}
