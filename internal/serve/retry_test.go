package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pandora/internal/faults"
	"pandora/internal/parallel"
	"pandora/internal/pipeline"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want FailureClass
	}{
		{nil, ClassDeterministic},
		{errors.New("assembly failed"), ClassDeterministic},
		{&pipeline.StallError{Reason: pipeline.ReasonPipelineError, Cause: errors.New("invariant"), Dump: &pipeline.CoreDump{}}, ClassDeterministic},
		{&pipeline.StallError{Reason: pipeline.ReasonWatchdog, Dump: &pipeline.CoreDump{}}, ClassDeterministic},
		{&parallel.PanicError{Index: 0, Value: "boom"}, ClassTransient},
		{&faults.ChaosError{Action: faults.ChaosStall, Key: "k", Att: 0}, ClassTransient},
		{fmt.Errorf("wrapped: %w", &faults.ChaosError{Action: faults.ChaosPanic, Key: "k"}), ClassTransient},
		{context.Canceled, ClassAborted},
		{context.DeadlineExceeded, ClassAborted},
		{pipeline.ErrCancelled, ClassAborted},
		{fmt.Errorf("wrapped: %w", context.DeadlineExceeded), ClassAborted},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
	prev := time.Duration(0)
	for att := 0; att < 4; att++ {
		d := p.Backoff(att, "key")
		if d < prev {
			t.Fatalf("backoff shrank: attempt %d gave %v after %v", att, d, prev)
		}
		prev = d
	}
	// The cap bounds growth: base*2^10 would be ~10s, the cap plus its
	// jitter allowance keeps it under 1.5*Max.
	if d := p.Backoff(10, "key"); d > p.Max+p.Max/2 {
		t.Fatalf("capped backoff %v exceeds max %v plus jitter", d, p.Max)
	}
}

func TestBackoffDeterministicPerKeyJitteredAcrossKeys(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, Base: 10 * time.Millisecond, Max: time.Second}
	if a, b := p.Backoff(1, "job-a"), p.Backoff(1, "job-a"); a != b {
		t.Fatalf("backoff not deterministic for one key: %v vs %v", a, b)
	}
	distinct := map[time.Duration]bool{}
	for i := 0; i < 16; i++ {
		distinct[p.Backoff(1, fmt.Sprintf("job-%d", i))] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("jitter produced no spread across 16 keys")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, time.Minute)

	// Closed: failures below the threshold do not shed.
	for i := 0; i < 2; i++ {
		if ok, _ := b.allow(now); !ok {
			t.Fatalf("breaker shed below threshold (failure %d)", i)
		}
		b.record(false, now)
	}
	if st := b.state(now); st != "closed" {
		t.Fatalf("state %q after 2 failures, want closed", st)
	}

	// Third consecutive failure opens the circuit.
	b.record(false, now)
	ok, retryAfter := b.allow(now)
	if ok || retryAfter <= 0 {
		t.Fatalf("open breaker allowed a submission (retryAfter=%v)", retryAfter)
	}
	if st := b.state(now); st != "open" {
		t.Fatalf("state %q, want open", st)
	}

	// After the cooldown: one half-open probe, everything else shed.
	later := now.Add(2 * time.Minute)
	if ok, _ := b.allow(later); !ok {
		t.Fatalf("half-open breaker refused the probe")
	}
	if ok, _ := b.allow(later); ok {
		t.Fatalf("half-open breaker admitted a second concurrent probe")
	}

	// Probe failure re-opens; probe success closes.
	b.record(false, later)
	if ok, _ := b.allow(later); ok {
		t.Fatalf("breaker closed after a failed probe")
	}
	evenLater := later.Add(2 * time.Minute)
	if ok, _ := b.allow(evenLater); !ok {
		t.Fatalf("no second probe after another cooldown")
	}
	b.record(true, evenLater)
	if st := b.state(evenLater); st != "closed" {
		t.Fatalf("state %q after successful probe, want closed", st)
	}
	if ok, _ := b.allow(evenLater); !ok {
		t.Fatalf("closed breaker shed traffic")
	}
}
