package uopt

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroSkipMul(t *testing.T) {
	s := Simplifier{ZeroSkipMul: true}
	if lat, ok := s.SimplifiedLatency(KindMul, 0, 123, 4); lat != 1 || !ok {
		t.Errorf("zero operand: lat=%d ok=%v", lat, ok)
	}
	if lat, ok := s.SimplifiedLatency(KindMul, 123, 0, 4); lat != 1 || !ok {
		t.Errorf("zero operand b: lat=%d ok=%v", lat, ok)
	}
	if lat, ok := s.SimplifiedLatency(KindMul, 3, 5, 4); lat != 4 || ok {
		t.Errorf("non-zero: lat=%d ok=%v", lat, ok)
	}
}

func TestTrivialALU(t *testing.T) {
	s := Simplifier{TrivialALU: true}
	if lat, ok := s.SimplifiedLatency(KindSimple, 0, 77, 1); lat != 1 || !ok {
		t.Errorf("trivial simple: %d %v", lat, ok)
	}
	if lat, ok := s.SimplifiedLatency(KindMul, 1, 77, 4); lat != 1 || !ok {
		t.Errorf("mul by one: %d %v", lat, ok)
	}
	if lat, ok := s.SimplifiedLatency(KindDiv, 77, 1, 20); lat != 1 || !ok {
		t.Errorf("div by one: %d %v", lat, ok)
	}
}

func TestEarlyExitDivLatencyMonotonic(t *testing.T) {
	s := Simplifier{EarlyExitDiv: true}
	// Wider dividends (relative to divisor) must not be faster.
	prev := 0
	for bitsLen := 1; bitsLen < 64; bitsLen++ {
		a := uint64(1)<<uint(bitsLen) - 1
		lat, _ := s.SimplifiedLatency(KindDiv, a, 3, 40)
		if lat < prev {
			t.Fatalf("latency decreased at %d bits: %d < %d", bitsLen, lat, prev)
		}
		prev = lat
	}
	// Equal-width operands exit almost immediately.
	lat, ok := s.SimplifiedLatency(KindDiv, 7, 5, 40)
	if !ok || lat > 3 {
		t.Errorf("narrow quotient latency = %d (ok=%v)", lat, ok)
	}
	// Latency never exceeds the default.
	f := func(a, b uint64) bool {
		lat, _ := s.SimplifiedLatency(KindDiv, a, b|1, 40)
		return lat >= 1 && lat <= 40
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestZeroSimplifierPassthrough(t *testing.T) {
	var s Simplifier
	if s.Enabled() {
		t.Error("zero simplifier reports enabled")
	}
	for _, k := range []ALUKind{KindSimple, KindMul, KindDiv} {
		if lat, ok := s.SimplifiedLatency(k, 0, 1, 4); lat != 4 || ok {
			t.Errorf("zero simplifier, %v: %d %v", k, lat, ok)
		}
	}
}

func TestPackerThreshold(t *testing.T) {
	if !CanPack(100, 200, 0xffff, 1) {
		t.Error("all-narrow operands should pack (msb <= 16)")
	}
	if CanPack(100, 200, 0x10000, 1) {
		t.Error("wide operand must not pack")
	}
	if !CanPack(0xffff, 0, 0, 0) || CanPack(0, 0, 0, 0x1ffff) {
		t.Error("narrow threshold is not 16 bits")
	}
}

func TestPackerLeaksOperandSignificance(t *testing.T) {
	// The MLD of Figure 3 Ex. 4: with attacker operands narrow, packing
	// reveals exactly whether the victim operands are narrow.
	victimSecrets := []uint64{3, 1 << 20}
	got := []bool{}
	for _, s := range victimSecrets {
		got = append(got, CanPack(s, 5 /*victim*/, 7, 9 /*attacker: narrow*/))
	}
	if got[0] == got[1] {
		t.Error("packing outcome must distinguish narrow vs wide victim operand")
	}
}

func TestReuseSv(t *testing.T) {
	rb := NewReuseBuffer(SchemeSv)
	if _, ok := rb.Lookup(10, 1, 2, 3, 4); ok {
		t.Error("hit on empty buffer")
	}
	rb.Update(10, 1, 2, 3, 4, 99)
	if v, ok := rb.Lookup(10, 1, 2, 3, 4); !ok || v != 99 {
		t.Errorf("miss after update: %d %v", v, ok)
	}
	// Different operand values: miss (that is the leak — a hit reveals
	// value equality).
	if _, ok := rb.Lookup(10, 1, 3, 3, 4); ok {
		t.Error("Sv hit despite different operand values")
	}
	// Different PC mapping to same slot: must not false-hit.
	if _, ok := rb.Lookup(10+ReuseEntries, 1, 2, 3, 4); ok {
		t.Error("hit for different PC in same slot")
	}
}

func TestReuseSn(t *testing.T) {
	rb := NewReuseBuffer(SchemeSn)
	rb.Update(10, 1, 2, 3, 4, 99)
	// Sn keys on register names: different values, same registers → hit.
	if v, ok := rb.Lookup(10, 7, 8, 3, 4); !ok || v != 99 {
		t.Errorf("Sn should hit on same register names: %d %v", v, ok)
	}
	// Overwriting a source register invalidates.
	rb.InvalidateReg(4)
	if _, ok := rb.Lookup(10, 1, 2, 3, 4); ok {
		t.Error("Sn hit after source register invalidation")
	}
}

func TestReuseSvIgnoresInvalidation(t *testing.T) {
	rb := NewReuseBuffer(SchemeSv)
	rb.Update(10, 1, 2, 3, 4, 99)
	rb.InvalidateReg(3)
	if _, ok := rb.Lookup(10, 1, 2, 3, 4); !ok {
		t.Error("Sv entries are value-keyed; register overwrite must not invalidate")
	}
}

func TestReuseFlushAndStats(t *testing.T) {
	rb := NewReuseBuffer(SchemeSv)
	rb.Update(1, 1, 1, 1, 1, 5)
	if _, ok := rb.Lookup(1, 1, 1, 1, 1); !ok {
		t.Error("miss on the memoized operands")
	}
	if _, ok := rb.Lookup(1, 2, 2, 1, 1); ok {
		t.Error("hit on other operands")
	}
	*rb = ReuseBuffer{Scheme: SchemeSn}
	if _, ok := rb.Lookup(1, 1, 1, 1, 1); ok {
		t.Error("hit after the buffer was emptied")
	}
}

func TestPredictorConfidenceGating(t *testing.T) {
	p := NewPredictor(2)
	if _, ok := p.Predict(5); ok {
		t.Error("prediction from empty table")
	}
	// Two identical resolutions reach threshold 2.
	p.Resolve(5, 42, false, 0)
	if _, ok := p.Predict(5); ok {
		t.Error("prediction after a single observation (conf 0)")
	}
	p.Resolve(5, 42, false, 0) // conf 1
	p.Resolve(5, 42, false, 0) // conf 2
	v, ok := p.Predict(5)
	if !ok || v != 42 {
		t.Errorf("confident prediction = %d, %v", v, ok)
	}
}

func TestPredictorMispredictResets(t *testing.T) {
	p := NewPredictor(1)
	p.Resolve(5, 42, false, 0)
	p.Resolve(5, 42, false, 0)
	v, ok := p.Predict(5)
	if !ok {
		t.Fatal("expected confident prediction")
	}
	if mis := p.Resolve(5, 43, true, v); !mis {
		t.Error("wrong prediction must report mispredict")
	}
	if _, ok := p.Predict(5); ok {
		t.Error("confidence must reset after value change")
	}
	if p.Mispredictions != 1 {
		t.Errorf("Mispredictions = %d", p.Mispredictions)
	}
}

func TestPredictorConfidenceSaturates(t *testing.T) {
	p := NewPredictor(2)
	for i := 0; i < 100; i++ {
		p.Resolve(9, 7, false, 0)
	}
	if got, want := p.table[9].conf, p.Threshold+confHeadroom; got != want {
		t.Errorf("confidence = %d, want saturation at %d", got, want)
	}
}

func TestValueFileSharing(t *testing.T) {
	vf := NewValueFile(RFCAnyValue)
	if vf.Produce(5) {
		t.Error("first producer of a value must not share")
	}
	if !vf.Produce(5) {
		t.Error("second producer of same value must share")
	}
	if vf.Live(5) != 2 {
		t.Errorf("Live(5) = %d", vf.Live(5))
	}
	if vf.Release(5) {
		t.Error("release with remaining sharers reported freed")
	}
	if !vf.Release(5) {
		t.Error("last release must report freed")
	}
	if vf.Live(5) != 0 {
		t.Errorf("Live after releases = %d", vf.Live(5))
	}
}

func TestValueFileZeroOneMode(t *testing.T) {
	vf := NewValueFile(RFCZeroOne)
	vf.Produce(0)
	if !vf.Produce(0) {
		t.Error("duplicate 0 must share in 0/1 mode")
	}
	vf.Produce(7)
	if vf.Produce(7) {
		t.Error("value 7 must not share in 0/1 mode")
	}
}

func TestValueFileOffMode(t *testing.T) {
	vf := NewValueFile(RFCOff)
	if vf.Produce(5) {
		t.Error("off mode never shares")
	}
	if !vf.Release(5) {
		t.Error("off mode always frees")
	}
}

// TestValueFileConservation property-checks that produce/release pairs
// balance: after releasing everything produced, nothing is live.
func TestValueFileConservation(t *testing.T) {
	f := func(vals []uint8) bool {
		vf := NewValueFile(RFCAnyValue)
		for _, v := range vals {
			vf.Produce(uint64(v % 4))
		}
		for _, v := range vals {
			vf.Release(uint64(v % 4))
		}
		for i := uint64(0); i < 4; i++ {
			if vf.Live(i) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}
