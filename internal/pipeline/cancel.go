package pipeline

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrCancelled is returned by Run when the machine's Config.Cancel flag
// was raised mid-run. It is deliberately a bare sentinel (no CoreDump,
// no cycle stamp): cancellation is the caller changing its mind, not the
// simulator failing, and callers route on errors.Is.
var ErrCancelled = errors.New("pipeline: run cancelled")

// CancelFlag is the cooperative cancellation handle for a Run: raise it
// from any goroutine and the cycle loop notices at its next checkpoint
// (every cancelCheckInterval cycles) and aborts with ErrCancelled.
//
// The flag exists so a job deadline can actually stop a simulation that
// is burning a worker — MaxCycles only bounds a run in simulated time,
// which bears no fixed relation to wall-clock. A nil Config.Cancel costs
// one pointer compare per cycle and nothing else; the armed path is a
// single atomic load every checkpoint interval, so the cycle loop stays
// allocation-free either way (the benchmark's cycles workload runs with
// the checkpoint compiled in; see bench/README.md).
type CancelFlag struct {
	v atomic.Bool
}

// Cancel raises the flag. Safe to call from any goroutine, repeatedly.
func (f *CancelFlag) Cancel() { f.v.Store(true) }

// Cancelled reports whether the flag has been raised.
func (f *CancelFlag) Cancelled() bool { return f.v.Load() }

// cancelCheckInterval is how often (in cycles) the run loop polls an
// armed CancelFlag. Must be a power of two; 1024 cycles is far below a
// millisecond of wall-clock at current simulation speed, so reaction to
// cancellation is prompt while the steady-state cost stays one masked
// compare per cycle.
const cancelCheckInterval = 1 << 10

// CancelFromContext returns a CancelFlag armed when ctx is cancelled
// (deadline or explicit), plus a stop function releasing the watcher.
// A ctx that can never be cancelled (context.Background and friends)
// returns a nil flag and a no-op stop, keeping the nil-deadline fast
// path free. A ctx already done returns the flag raised: the watcher
// raises it from a goroutine of its own, which a busy scheduler may not
// start before the run ends. Callers must invoke stop once the machine
// is done with the flag.
func CancelFromContext(ctx context.Context) (*CancelFlag, func()) {
	if ctx == nil || ctx.Done() == nil {
		return nil, func() {}
	}
	f := &CancelFlag{}
	if ctx.Err() != nil {
		f.Cancel()
	}
	stop := context.AfterFunc(ctx, f.Cancel)
	return f, func() { stop() }
}
