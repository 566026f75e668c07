// Package obs is the simulator's unified observability layer: a typed
// probe/event taxonomy every simulated structure publishes into, a
// registry of named counters behind snapshot/diff methods, and exporters
// (deterministic JSONL, Chrome trace-event format for Perfetto, a text
// cycle-attribution report, and a per-µop pipeview diagram).
//
// The layer is zero-cost when disabled: every publisher guards its
// emission with a nil check on the probe, events are plain value structs
// with static detail strings (no formatting on hot paths), and the
// registry reads counters through closures only at snapshot time — the
// hot path keeps its raw field increments inside the owning package.
// Tests pin both properties: a nil probe performs no allocations, and
// the same seed yields byte-identical traces at every worker count.
package obs

import "fmt"

// Kind classifies one probe event. The taxonomy covers the µop lifecycle
// (fetch/rename/issue/forward/retire plus squash and store dequeue), the
// cache hierarchy (hit/miss/fill/evict/prefetch), optimization-feature
// activations, taint leak events, fault injections, and the store-queue
// steps of the paper's Figure 4.
type Kind uint8

const (
	// KindFetch: an instruction entered the frontend from the control-flow
	// oracle (replayed µops do not re-fetch).
	KindFetch Kind = iota
	// KindRename: a µop was renamed and dispatched into the backend.
	KindRename
	// KindIssue: a µop was scheduled onto a port; Arg is its latency.
	KindIssue
	// KindForward: a load was (at least partly) satisfied by
	// store-to-load forwarding.
	KindForward
	// KindRetire: a µop committed; Arg is its fetch-to-retire lifetime.
	KindRetire
	// KindSquash: a µop was squashed for replay (value misprediction).
	KindSquash
	// KindDequeue: a store left the store queue; Detail is "silent" for a
	// silently elided store (Figure 4 Case A). An in-order dequeue with
	// empty Detail is also the memory response and the store reaching
	// the cache.
	KindDequeue
	// KindRunStart / KindRunEnd bracket one Machine.Run on the retire
	// track, so a trace's retire-track cycle span equals Result.Cycles.
	KindRunStart
	KindRunEnd

	// KindCacheHit / KindCacheMiss: a demand lookup at one cache level.
	KindCacheHit
	KindCacheMiss
	// KindCacheFill: a line was inserted; Detail is "prefetch" for
	// prefetch fills.
	KindCacheFill
	// KindCacheEvict: a line was displaced or invalidated; Addr is the
	// victim line address.
	KindCacheEvict
	// KindCachePrefetch: the hierarchy accepted a prefetch request.
	KindCachePrefetch

	// KindUopt: an optimization-feature activation (Detail names the
	// feature: reuse, pack, simplify, value-predict, value-mispredict,
	// rfc-share, silent-store, ss-load).
	KindUopt
	// KindTaintLeak: an optimization trigger condition read secret-labeled
	// state (Detail names the optimization class, Arg the label set).
	KindTaintLeak
	// KindFault: a fault injector fired (Detail names the site).
	KindFault

	// Store-queue steps of Figure 4, all on TrackMem. (An SS-Load issue
	// is KindUopt "ss-load", returning at Cycle+Arg.)

	// KindAddrResolved: a store's address (Addr) and data (Arg) resolved.
	KindAddrResolved
	// KindSSLoadNoPort: an SS-Load found no free load port (Case C).
	KindSSLoadNoPort
	// KindSSLoadReturn: a silent-store check resolved; Arg is the old
	// value read, Detail "match" or "mismatch".
	KindSSLoadReturn
	// KindSSLoadLate: the store had to perform before its SS-Load
	// returned (Case D).
	KindSSLoadLate
	// KindSQHead: a retired store reached the store-queue head.
	KindSQHead
	// KindFillRequest: a store missed L1 at perform; Arg is the latency.
	KindFillRequest

	numKinds
)

var kindNames = [numKinds]string{
	KindFetch:         "fetch",
	KindRename:        "rename",
	KindIssue:         "issue",
	KindForward:       "forward",
	KindRetire:        "retire",
	KindSquash:        "squash",
	KindDequeue:       "sq-dequeue",
	KindRunStart:      "run-start",
	KindRunEnd:        "run-end",
	KindCacheHit:      "cache-hit",
	KindCacheMiss:     "cache-miss",
	KindCacheFill:     "cache-fill",
	KindCacheEvict:    "cache-evict",
	KindCachePrefetch: "cache-prefetch",
	KindUopt:          "uopt",
	KindTaintLeak:     "taint-leak",
	KindFault:         "fault",
	KindAddrResolved:  "addr-resolved",
	KindSSLoadNoPort:  "ssload-no-port",
	KindSSLoadReturn:  "ssload-return",
	KindSSLoadLate:    "ssload-late",
	KindSQHead:        "reaches-sq-head",
	KindFillRequest:   "fill-request",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Track assigns an event to one pipeline structure — rendered as one
// thread per track in the Chrome trace-event export, so Perfetto shows
// the fetch, rename, issue, memory, retire, cache and optimization
// activity as parallel timelines.
type Track uint8

const (
	TrackFetch Track = iota
	TrackRename
	TrackIssue
	// TrackMem is the load/store queue: forwarding, SS-Loads, dequeues.
	TrackMem
	TrackRetire
	TrackL1
	TrackL2
	TrackPrefetch
	TrackUopt
	TrackTaint
	TrackFaults

	NumTracks
)

var trackNames = [NumTracks]string{
	TrackFetch:    "fetch",
	TrackRename:   "rename",
	TrackIssue:    "issue",
	TrackMem:      "mem",
	TrackRetire:   "retire",
	TrackL1:       "L1",
	TrackL2:       "L2",
	TrackPrefetch: "prefetch",
	TrackUopt:     "uopt",
	TrackTaint:    "taint",
	TrackFaults:   "faults",
}

func (t Track) String() string {
	if int(t) < len(trackNames) {
		return trackNames[t]
	}
	return fmt.Sprintf("track(%d)", uint8(t))
}

// Event is one cycle-stamped observation. It is a plain value: emitting
// one allocates nothing, and Detail must be a static (or pre-built)
// string — publishers never format on the hot path.
type Event struct {
	Cycle int64
	Kind  Kind
	Track Track
	// Seq is the dynamic µop sequence number (0 when not applicable).
	Seq uint64
	// PC is the µop's program counter (-1 when not applicable).
	PC int64
	// Addr is the byte address for memory/cache events.
	Addr uint64
	// Arg is a kind-specific scalar: issue latency, retire lifetime,
	// taint label set, fault payload, store data or SS-Load value.
	Arg int64
	// Detail is short static context (feature name, fault site, ...).
	Detail string
}

// Probe consumes events. Implementations must not retain a pointer into
// the event (it is a value) and must be deterministic if the trace they
// produce is compared across runs. A nil Probe disables observation at
// zero cost; publishers guard every Emit with a nil check.
type Probe interface {
	Emit(Event)
}
