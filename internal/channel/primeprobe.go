// Package channel implements classic cache covert-channel receivers on
// top of the cache model — the measurement half of every attack in this
// repository. The transmitter is whatever modulates cache state (a victim
// program, or a data memory-dependent prefetcher); the receiver is
// Prime+Probe [Osvik, Shamir & Tromer, CT-RSA'06]: fill the monitored
// sets with attacker lines, let the transmitter run, then re-access the
// attacker lines and time them — an evicted line means the transmitter
// touched that set.
package channel

import (
	"fmt"

	"pandora/internal/cache"
)

// Level selects which cache the receiver monitors.
type Level int

// Receiver monitoring levels.
const (
	L1 Level = iota
	L2
)

func (l Level) String() string {
	if l == L1 {
		return "L1"
	}
	return "L2"
}

// PrimeProbe is a deterministic Prime+Probe receiver bound to one cache
// level of a hierarchy.
type PrimeProbe struct {
	hier  *cache.Hierarchy
	level Level

	sets     int
	ways     int
	lineSize int

	// lines holds each set's attacker lines in the order Prime and Probe
	// touch them: set s's are lines[s*ways : (s+1)*ways]. setOrder is the
	// order PrimeAll and ProbeAll visit the sets in. Both are built once,
	// so the access loops do no arithmetic beyond indexing.
	lines    []uint64
	setOrder []int

	// Threshold above which a probed line counts as evicted; defaults to
	// halfway between the monitored level's hit latency and the next
	// level's.
	Threshold int
}

// NewPrimeProbe builds a receiver. base is the start of an attacker-owned
// buffer of at least sets*ways*stride bytes; it should be line-aligned.
func NewPrimeProbe(h *cache.Hierarchy, level Level, base uint64) (*PrimeProbe, error) {
	if h == nil {
		return nil, fmt.Errorf("channel: nil hierarchy")
	}
	var cfg cache.Config
	var threshold int
	hc := h.Config()
	switch level {
	case L1:
		cfg = hc.L1
		threshold = (hc.L1.HitLatency + hc.L2.HitLatency) / 2
	case L2:
		cfg = hc.L2
		threshold = (hc.L2.HitLatency + hc.MemLatency) / 2
	default:
		return nil, fmt.Errorf("channel: bad level %d", level)
	}
	if base%uint64(cfg.LineSize) != 0 {
		return nil, fmt.Errorf("channel: probe base %#x not line-aligned", base)
	}
	pp := &PrimeProbe{
		hier:      h,
		level:     level,
		sets:      cfg.Sets,
		ways:      cfg.Ways,
		lineSize:  cfg.LineSize,
		Threshold: threshold,
		lines:     make([]uint64, 0, cfg.Sets*cfg.Ways),
		setOrder:  make([]int, cfg.Sets),
	}
	stride := uint64(cfg.Sets * cfg.LineSize) // byte distance between same-set lines
	for set := 0; set < cfg.Sets; set++ {
		for i := 0; i < cfg.Ways; i++ {
			way := pp.permutedWay(i)
			pp.lines = append(pp.lines, base+uint64(set)*uint64(cfg.LineSize)+uint64(way)*stride)
		}
	}
	for i := range pp.setOrder {
		pp.setOrder[i] = pp.permutedSet(i)
	}
	return pp, nil
}

// Sets returns the number of monitored sets.
func (pp *PrimeProbe) Sets() int { return pp.sets }

// SetOf returns the monitored-level set index of addr.
func (pp *PrimeProbe) SetOf(addr uint64) int {
	return int(addr / uint64(pp.lineSize) % uint64(pp.sets))
}

// permutedWay visits ways in a fixed non-sequential order so the probe
// loop does not itself look like a constant-stride stream to a
// data-dependent prefetcher watching the access bus.
func (pp *PrimeProbe) permutedWay(i int) int {
	return (i*7 + 3) % pp.ways
}

// permutedSet visits sets with a large coprime stride for the same
// reason: consecutive same-way prime accesses to adjacent sets differ by
// exactly one line, which is a textbook stream.
func (pp *PrimeProbe) permutedSet(i int) int {
	return (i*97 + 13) % pp.sets
}

// setLines returns set's attacker lines in access order; set must be in
// [0, Sets()).
func (pp *PrimeProbe) setLines(set int) []uint64 {
	return pp.lines[set*pp.ways : (set+1)*pp.ways]
}

// Prime fills one monitored set, in [0, Sets()), with attacker lines.
func (pp *PrimeProbe) Prime(set int) {
	for _, a := range pp.setLines(set) {
		pp.hier.Access(a, 0, false)
	}
}

// PrimeAll primes every monitored set (in stream-free permuted order).
func (pp *PrimeProbe) PrimeAll() {
	for _, s := range pp.setOrder {
		pp.Prime(s)
	}
}

// Probe re-accesses one set's attacker lines and returns how many missed
// the monitored level (were evicted since Prime). set must be in
// [0, Sets()).
func (pp *PrimeProbe) Probe(set int) int {
	evicted := 0
	for _, a := range pp.setLines(set) {
		if pp.hier.Access(a, 0, false).Latency >= pp.Threshold {
			evicted++
		}
	}
	return evicted
}

// ProbeAll probes every set (permuted order), returning per-set eviction
// counts.
func (pp *PrimeProbe) ProbeAll() []int {
	out := make([]int, pp.sets)
	for _, s := range pp.setOrder {
		out[s] = pp.Probe(s)
	}
	return out
}

// HotSets returns the sets whose probe detected at least one eviction.
func HotSets(counts []int) []int {
	var hot []int
	for s, c := range counts {
		if c > 0 {
			hot = append(hot, s)
		}
	}
	return hot
}
