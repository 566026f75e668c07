package serve

import (
	"fmt"
	"sync"

	"pandora/internal/obs"
)

// JobEvent is one line of a job's progress stream, delivered to clients
// over GET /v1/jobs/{id}/events as SSE or JSONL.
type JobEvent struct {
	Seq   int    `json:"seq"`
	Phase string `json:"phase"`
	Text  string `json:"text,omitempty"`
}

// Event phases, in rough lifecycle order. A job emits queued, then
// either cached (served from the store without executing) or
// started…done/failed; log and probe events appear between started and
// the terminal phase.
const (
	PhaseQueued   = "queued"
	PhaseStarted  = "started"
	PhaseLog      = "log"
	PhaseProbe    = "probe"
	PhaseCached   = "cached"
	PhaseRejected = "rejected"
	PhaseRetry    = "retry"
	PhaseReplayed = "replayed"
	PhaseDone     = "done"
	PhaseFailed   = "failed"
)

// maxJobEvents caps one job's event log, so a settled job's record
// stays small however much its analysis logged. The last slot is kept
// for the terminal event; events past the cap are counted rather than
// recorded, so seq stays gapless in the replay and in live streams.
const maxJobEvents = 256

// eventLog is a job's append-only progress stream: an in-memory replay
// buffer plus live fan-out to subscribers. Finishing it (on job
// completion) ends every subscriber's stream after the buffered events
// drain.
type eventLog struct {
	mu      sync.Mutex
	events  []JobEvent
	dropped int // events refused by the maxJobEvents cap
	subs    map[chan JobEvent]struct{}
	closed  bool
}

// append records an event and delivers it to live subscribers, unless
// the log is full. Slow subscribers do not block the job: a subscriber
// whose channel is full is dropped (its stream ends early; the replay
// buffer still holds the history for a reconnect).
func (l *eventLog) append(phase, text string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if len(l.events) >= maxJobEvents-1 {
		l.dropped++
		return
	}
	l.record(phase, text)
}

func (l *eventLog) appendf(phase, format string, args ...any) {
	l.append(phase, fmt.Sprintf(format, args...))
}

// record appends ev with the next seq and fans it out; the caller holds
// l.mu.
func (l *eventLog) record(phase, text string) {
	ev := JobEvent{Seq: len(l.events), Phase: phase, Text: text}
	l.events = append(l.events, ev)
	for ch := range l.subs {
		select {
		case ch <- ev:
		default:
			delete(l.subs, ch)
			close(ch)
		}
	}
}

// finish records the terminal event, saying how many events the cap
// dropped, and closes the stream.
func (l *eventLog) finish(phase, text string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if l.dropped > 0 {
		text = fmt.Sprintf("%s (%d events dropped)", text, l.dropped)
	}
	l.record(phase, text)
	l.closeLocked()
}

// close ends the stream: subscribers' channels are closed after the
// events already sent, and later subscribe calls see replay only.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeLocked()
}

func (l *eventLog) closeLocked() {
	if l.closed {
		return
	}
	l.closed = true
	for ch := range l.subs {
		close(ch)
	}
	l.subs = nil
}

// subscribe returns the replay of everything so far plus a live channel
// (nil if the log is already closed). cancel detaches the subscriber;
// it is safe to call after the log closed.
func (l *eventLog) subscribe() (replay []JobEvent, live <-chan JobEvent, cancel func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	replay = append([]JobEvent(nil), l.events...)
	if l.closed {
		return replay, nil, func() {}
	}
	if l.subs == nil {
		l.subs = make(map[chan JobEvent]struct{})
	}
	// A log holds at most maxJobEvents events, so this buffer has room
	// for every event still to come.
	ch := make(chan JobEvent, maxJobEvents)
	l.subs[ch] = struct{}{}
	return replay, ch, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, ok := l.subs[ch]; ok {
			delete(l.subs, ch)
			close(ch)
		}
	}
}

// probeBridge adapts the obs probe interface onto a job's event stream:
// the first probeDetail events are forwarded verbatim (cycle, kind,
// track, pc), after which only every probeEvery-th event emits a
// running count — a trace job can carry tens of thousands of µop events
// and the stream must stay proportionate.
type probeBridge struct {
	log *eventLog
	mu  sync.Mutex
	n   uint64
}

const (
	probeDetail = 64
	probeEvery  = 4096
)

func (b *probeBridge) Emit(ev obs.Event) {
	b.mu.Lock()
	b.n++
	n := b.n
	b.mu.Unlock()
	switch {
	case n <= probeDetail:
		b.log.appendf(PhaseProbe, "cycle %d %s/%s seq=%d pc=%#x",
			ev.Cycle, ev.Track, ev.Kind, ev.Seq, ev.PC)
	case n%probeEvery == 0:
		b.log.appendf(PhaseProbe, "%d probe events so far", n)
	}
}

// count returns how many probe events the bridge saw.
func (b *probeBridge) count() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}
