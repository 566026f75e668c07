package serve

import (
	"sync"
	"time"
)

// breaker is a per-job-kind circuit breaker: consecutive terminal
// failures past a threshold open the circuit, and while it is open the
// server sheds that kind's submissions with 503 + Retry-After instead
// of queueing work it expects to fail. After the cooldown one probe
// submission is let through half-open: success closes the circuit,
// failure re-opens it for another cooldown.
//
// The breaker sees terminal verdicts only — a transient failure that a
// retry recovered counts as the success it ended in, and cache hits
// never touch it.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu          sync.Mutex
	consecutive int
	openUntil   time.Time
	probing     bool
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a submission may proceed now. When it may not,
// retryAfter is how long the client should wait before retrying. probe
// marks the one half-open submission admitted after a cooldown: its
// verdict (record) or its release frees the slot for the next probe.
func (b *breaker) allow(now time.Time) (ok, probe bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.consecutive < b.threshold {
		return true, false, 0
	}
	if now.Before(b.openUntil) {
		return false, false, b.openUntil.Sub(now)
	}
	// Cooldown elapsed: admit one half-open probe, shed the rest until
	// its verdict lands.
	if b.probing {
		return false, false, b.cooldown
	}
	b.probing = true
	return true, true, 0
}

// release gives back a probe slot whose submission never ran (its
// queue refused it), without counting a verdict.
func (b *breaker) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// record feeds one terminal job verdict back.
func (b *breaker) record(success bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if success {
		b.consecutive = 0
		return
	}
	b.consecutive++
	if b.consecutive >= b.threshold {
		b.openUntil = now.Add(b.cooldown)
	}
}

// state summarizes the breaker for the readiness endpoint.
func (b *breaker) state(now time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.consecutive < b.threshold:
		return "closed"
	case now.Before(b.openUntil):
		return "open"
	default:
		return "half-open"
	}
}
