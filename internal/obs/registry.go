package obs

import (
	"fmt"
	"sort"
	"strings"
)

// metricKind distinguishes how Delta treats a metric: counters subtract,
// gauges report the current value.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
)

// Registry is a named view over metrics that live as plain fields inside
// their owning packages. Registration hands the registry a read closure;
// the hot path keeps incrementing its raw field and pays nothing — the
// closure is only invoked at snapshot time. This is the redesigned
// replacement for field-by-field Stats plumbing: callers take a Snapshot
// before a region of interest and Delta after, instead of copying struct
// fields by hand.
//
// Registry is not safe for concurrent mutation; build it once at machine
// construction and snapshot it from the machine's own goroutine (the
// parallel engine gives each worker its own machine, so this is the
// natural discipline).
type Registry struct {
	names []string
	kinds []metricKind
	read  []func() uint64
	index map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

func (r *Registry) register(name string, k metricKind, read func() uint64) {
	if _, dup := r.index[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.index[name] = len(r.names)
	r.names = append(r.names, name)
	r.kinds = append(r.kinds, k)
	r.read = append(r.read, read)
}

// Counter registers a monotonically increasing metric read through fn.
func (r *Registry) Counter(name string, fn func() uint64) {
	r.register(name, kindCounter, fn)
}

// CounterUint64 registers a counter backed directly by a uint64 field.
func (r *Registry) CounterUint64(name string, p *uint64) {
	r.register(name, kindCounter, func() uint64 { return *p })
}

// CounterInt64 registers a counter backed by an int64 field (cycle
// counts). Values are stored as uint64 two's complement; Snapshot.Get
// callers that know the metric is cycle-like convert back with int64().
func (r *Registry) CounterInt64(name string, p *int64) {
	r.register(name, kindCounter, func() uint64 { return uint64(*p) })
}

// Gauge registers a point-in-time metric (occupancy, level). Delta
// reports the current value rather than a difference.
func (r *Registry) Gauge(name string, fn func() uint64) {
	r.register(name, kindGauge, fn)
}

// Histogram is a fixed-bucket distribution. Observe is alloc-free; the
// registry exposes it as name.count, name.sum and one name.le.B counter
// per bucket bound (plus name.le.inf).
type Histogram struct {
	bounds  []int64
	buckets []uint64
	count   uint64
	sum     uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	h.count++
	h.sum += uint64(v)
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i]++
			return
		}
	}
	h.buckets[len(h.bounds)]++
}

// Histogram registers a histogram with the given ascending bucket bounds
// and returns it for the owner to Observe into.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	h := &Histogram{bounds: bounds, buckets: make([]uint64, len(bounds)+1)}
	r.Counter(name+".count", func() uint64 { return h.count })
	r.Counter(name+".sum", func() uint64 { return h.sum })
	for i, b := range bounds {
		i := i
		r.Counter(fmt.Sprintf("%s.le.%d", name, b), func() uint64 { return h.buckets[i] })
	}
	last := len(bounds)
	r.Counter(name+".le.inf", func() uint64 { return h.buckets[last] })
	return h
}

// Names returns the registered metric names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Snapshot is a point-in-time copy of every metric value. It stays valid
// after the registry's underlying fields move on.
type Snapshot struct {
	reg  *Registry
	vals []uint64
}

// Snapshot reads every metric. Allocates; hot callers use SnapshotInto.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	r.SnapshotInto(&s)
	return s
}

// SnapshotInto reads every metric into dst, reusing dst's buffer when it
// is large enough, so a caller that snapshots repeatedly into the same
// two Snapshots allocates nothing after the first pair.
func (r *Registry) SnapshotInto(dst *Snapshot) {
	dst.reg = r
	if cap(dst.vals) < len(r.read) {
		dst.vals = make([]uint64, len(r.read))
	}
	dst.vals = dst.vals[:len(r.read)]
	for i, fn := range r.read {
		dst.vals[i] = fn()
	}
}

// Get returns the value of a named metric (0 if absent).
func (s Snapshot) Get(name string) uint64 {
	if s.reg == nil {
		return 0
	}
	if i, ok := s.reg.index[name]; ok {
		return s.vals[i]
	}
	return 0
}

// GetInt64 returns a cycle-like metric as a signed count.
func (s Snapshot) GetInt64(name string) int64 { return int64(s.Get(name)) }

// Map returns the snapshot as a name → value map, the shape the serve
// layer marshals for GET /v1/stats (encoding/json sorts map keys, so
// the JSON rendering is deterministic).
func (s Snapshot) Map() map[string]uint64 {
	if s.reg == nil {
		return map[string]uint64{}
	}
	out := make(map[string]uint64, len(s.vals))
	for name, i := range s.reg.index {
		out[name] = s.vals[i]
	}
	return out
}

// Delta returns a snapshot holding, for each counter, the increase since
// prev, and for each gauge, the current value. prev may be the zero
// Snapshot (everything counts from zero).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{}
	s.DeltaInto(prev, &d)
	return d
}

// DeltaInto computes Delta into dst, reusing dst's buffer when possible.
func (s Snapshot) DeltaInto(prev Snapshot, dst *Snapshot) {
	dst.reg = s.reg
	if cap(dst.vals) < len(s.vals) {
		dst.vals = make([]uint64, len(s.vals))
	}
	dst.vals = dst.vals[:len(s.vals)]
	for i, v := range s.vals {
		if s.reg.kinds[i] == kindGauge || prev.reg == nil {
			dst.vals[i] = v
			continue
		}
		dst.vals[i] = v - prev.vals[i]
	}
}

// Format renders the snapshot as sorted "name value" lines, skipping
// zero-valued metrics unless all is set. Deterministic: sorted by name.
func (s Snapshot) Format(all bool) string {
	if s.reg == nil {
		return ""
	}
	names := s.reg.Names()
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		v := s.vals[s.reg.index[n]]
		if v == 0 && !all {
			continue
		}
		fmt.Fprintf(&b, "%-34s %d\n", n, v)
	}
	return b.String()
}
