package serve

import (
	"context"
	"errors"
	"hash/fnv"
	"time"

	"pandora/internal/faults"
	"pandora/internal/parallel"
	"pandora/internal/pipeline"
)

// FailureClass sorts a job attempt's error into the service's failure
// taxonomy, which decides what happens next:
//
//   - Transient failures (a worker panic, injected chaos) are
//     environmental: the same spec can succeed on a clean retry, so the
//     server retries them with capped exponential backoff and never
//     caches the failure.
//   - Deterministic failures (validation, any supervised pipeline
//     failure — a watchdog stall, an invariant violation, an oracle
//     mismatch, MaxCycles — or an analysis error) are a property of the
//     spec: the simulation is a pure function of it, so retrying reruns
//     the same computation to the same end. The failure is cached as a
//     failed result and served like any other — visibly failed, never
//     re-executed.
//   - Aborted attempts (job deadline expired, server shutting down) are
//     neither: the result was never computed, so nothing is cached, and
//     whether the job is retried depends on why it aborted (a replay
//     after restart for shutdown, a terminal visible failure for a
//     deadline).
type FailureClass int

const (
	// ClassDeterministic is the default: an error that is a pure
	// function of the canonical spec.
	ClassDeterministic FailureClass = iota
	// ClassTransient is an environmental failure worth retrying.
	ClassTransient
	// ClassAborted is a cancelled attempt (deadline or shutdown).
	ClassAborted
)

func (c FailureClass) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassAborted:
		return "aborted"
	default:
		return "deterministic"
	}
}

// Classify maps an attempt error onto the taxonomy. The transient set
// is deliberately explicit — worker panics (parallel.PanicError) and
// injected chaos (faults.ChaosError) — because misclassifying a
// deterministic failure as transient turns every bad spec into
// MaxAttempts wasted executions.
func Classify(err error) FailureClass {
	if err == nil {
		return ClassDeterministic
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, pipeline.ErrCancelled) {
		return ClassAborted
	}
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		return ClassTransient
	}
	var ce *faults.ChaosError
	if errors.As(err, &ce) {
		return ClassTransient
	}
	return ClassDeterministic
}

// RetryPolicy is the server's transient-failure retry schedule.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per job, first try
	// included. 1 disables retries.
	MaxAttempts int
	// Base is the backoff before the first retry; each further retry
	// doubles it, capped at Max.
	Base time.Duration
	// Max caps the exponential growth.
	Max time.Duration
}

// Backoff returns the delay before retry number attempt (0 = the delay
// after the first failed try): capped exponential growth plus a
// deterministic jitter in [0, base/2) derived from the job key, so
// retries of distinct jobs de-synchronize while a chaos run stays
// reproducible.
func (p RetryPolicy) Backoff(attempt int, key string) time.Duration {
	d := p.Base
	for i := 0; i < attempt && d < p.Max; i++ {
		d *= 2
	}
	if d > p.Max {
		d = p.Max
	}
	if d <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{byte(attempt)})
	jitter := time.Duration(h.Sum64() % uint64(d/2+1))
	return d + jitter
}

// Attempt records one failed try preceding a job's terminal state; the
// slice lives in JobResult.Attempts, so a stored result carries its own
// retry history. Retry-free jobs leave Attempts empty (and omitted from
// the serialized result), keeping their bodies byte-identical to a
// server that never retried anything.
type Attempt struct {
	// N is the attempt number, 0-based.
	N int `json:"n"`
	// Class is the failure's taxonomy class.
	Class string `json:"class"`
	// Error is the attempt's error text.
	Error string `json:"error"`
	// BackoffMS is the delay scheduled after this attempt (0 for the
	// last attempt of an exhausted budget).
	BackoffMS int64 `json:"backoff_ms"`
}
