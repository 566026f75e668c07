// Package faults is the deterministic fault-injection layer behind
// `pandora fault`: seeded plans that flip bits in simulated structures
// (physical register file, store queue, forwarded load data, cache tags
// and replacement metadata), drop an issue wakeup, delay a cache fill,
// or re-introduce previously fixed structural bugs (the PR-2 fence/SQ
// deadlock, the SRA-as-SRL miscompile, the broken taint ALU rule).
//
// The point of the package is to close the detection loop: the pipeline's
// invariant checks, the differential oracle, the taint verifier and the
// forward-progress watchdog only prove value when they demonstrably catch
// real faults. A Plan is a pure value — (site, trigger cycle, payload,
// seed) — so every injected fault is reproducible from its seed, and a
// nil Injector is a guaranteed no-op: production sweeps pay nothing.
//
// The simulator owns the hook points (internal/pipeline, internal/cache);
// this package only decides, deterministically, *whether* and *how* a
// given hook fires. Fault sites come in two flavors: transient sites fire
// Count times once TriggerCycle is reached (a bit flips, a fill is late),
// while structural sites (fence-stuck, miscompile, taint-rule) are active
// for the whole run — they model a wrong design, not a wrong bit.
package faults

import (
	"fmt"
	"math"

	"pandora/internal/isa"
	"pandora/internal/obs"
)

// Site identifies one class of injectable fault.
type Site uint8

const (
	// SiteNone is the zero Site; a Plan with SiteNone never fires.
	SiteNone Site = iota
	// SitePRF flips a bit of a register value in the committed register
	// file, immediately after retire verification accepted it — a bit
	// flip at rest, visible only to later readers.
	SitePRF
	// SiteLSQ flips a bit of a store-queue entry's data while the store
	// waits at the queue head, after younger loads may already have
	// forwarded the correct value.
	SiteLSQ
	// SiteForward flips a bit of a load value that was (at least partly)
	// satisfied by store-to-load forwarding.
	SiteForward
	// SiteIssueDrop permanently drops one ready µop's issue wakeup: the
	// µop stays dispatched forever, and the machine livelocks once it is
	// the oldest — the watchdog's canonical prey.
	SiteIssueDrop
	// SiteFenceStuck re-introduces the PR-2 fence bug: a fence at the
	// head of the ROB waits for a fully empty store queue, deadlocking
	// against younger stores whose SQ slots were allocated at rename.
	SiteFenceStuck
	// SiteCacheLine flips a tag bit of a valid L1 line, typically
	// breaking L2 ⊇ L1 inclusivity or duplicating a tag within a set.
	SiteCacheLine
	// SiteReplacement corrupts L1 replacement metadata: an LRU/Random
	// timestamp pushed ahead of the access tick, or a flipped tree-PLRU
	// bit (a timing-only fault — legal-looking state, wrong victim).
	SiteReplacement
	// SiteFillDelay adds Payload cycles of latency to one cache fill — a
	// pure timing fault with no architectural footprint.
	SiteFillDelay
	// SiteMiscompile rewrites the program before the pipeline runs it,
	// executing every arithmetic right shift as a logical one (the
	// canonical injected bug of the differential harness).
	SiteMiscompile
	// SiteTaintALU breaks the taint engine's ALU propagation rule (ALU
	// results drop their operand labels), the fault the no-under-tainting
	// verifier must catch.
	SiteTaintALU
	// SiteMispredictStorm forces conditional branches to predict against
	// the architectural outcome, Count times from TriggerCycle on: each
	// firing turns a correctly predicted branch into a mispredict (a
	// redirect bubble, or a wrong-path fetch-and-squash under
	// Speculation.WrongPath) — a pure timing fault.
	SiteMispredictStorm
	// SiteStuckPredictor freezes predictor training for the whole run:
	// the bimodal direction counters and the store-to-load forwarding
	// confidence counters keep predicting from stale state. Structural,
	// and only observable on a machine whose Config.Speculation enables
	// Bimodal or StLF — it is exercised by unit tests, not the campaign
	// sweep.
	SiteStuckPredictor

	numSites
)

var siteNames = [numSites]string{
	SiteNone:            "none",
	SitePRF:             "prf",
	SiteLSQ:             "lsq",
	SiteForward:         "forward",
	SiteIssueDrop:       "issue-drop",
	SiteFenceStuck:      "fence-stuck",
	SiteCacheLine:       "cache-line",
	SiteReplacement:     "replacement",
	SiteFillDelay:       "fill-delay",
	SiteMiscompile:      "miscompile",
	SiteTaintALU:        "taint-alu",
	SiteMispredictStorm: "mispredict-storm",
	SiteStuckPredictor:  "stuck-predictor",
}

func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// ParseSite maps a site name (as printed by Site.String) back to its Site.
func ParseSite(name string) (Site, error) {
	for i, n := range siteNames {
		if n == name && Site(i) != SiteNone {
			return Site(i), nil
		}
	}
	return SiteNone, fmt.Errorf("faults: unknown site %q (want one of %v)", name, CampaignSites())
}

// CampaignSites returns the sites the fault campaign sweeps: every
// runtime site plus the miscompile rewrite. SiteTaintALU is excluded —
// it faults the detector itself, not the simulator, and is exercised by
// `pandora scan -inject`.
func CampaignSites() []Site {
	return []Site{
		SitePRF, SiteLSQ, SiteForward, SiteIssueDrop, SiteFenceStuck,
		SiteCacheLine, SiteReplacement, SiteFillDelay, SiteMiscompile,
		SiteMispredictStorm,
	}
}

// structural reports whether the site models a wrong design rather than a
// transient bit flip: active for the whole run, ignoring TriggerCycle and
// Count.
func (s Site) structural() bool {
	switch s {
	case SiteFenceStuck, SiteMiscompile, SiteTaintALU, SiteStuckPredictor:
		return true
	}
	return false
}

// Plan describes one deterministic fault: what to break (Site), when it
// may first fire (TriggerCycle), how often (Count, default 1), and the
// payload (a XOR mask for bit-flip sites, a cycle count for
// SiteFillDelay; 0 selects a Seed-derived default). Seed additionally
// drives site-internal choices (which cache line, which tag bit).
// Structural sites ignore TriggerCycle and Count. The zero Plan is valid
// and never fires.
type Plan struct {
	Site         Site   `json:"site"`
	TriggerCycle int64  `json:"trigger_cycle"`
	Count        int    `json:"count,omitempty"`
	Payload      uint64 `json:"payload,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
}

// count returns the effective firing budget.
func (p *Plan) count() int {
	if p.Count <= 0 {
		return 1
	}
	return p.Count
}

// mask returns the XOR payload for bit-flip sites: Payload when set, else
// one Seed-derived bit so a zero-payload plan still changes the value.
func (p *Plan) mask() uint64 {
	if p.Payload != 0 {
		return p.Payload
	}
	return 1 << (uint(splitmix(uint64(p.Seed))) & 63)
}

// delay returns the extra fill latency for SiteFillDelay.
func (p *Plan) delay() int64 {
	if p.Payload != 0 {
		return int64(p.Payload)
	}
	return 37 // long enough to survive out-of-order slack absorption
}

// splitmix is a splitmix64 finalizer, used to derive payload bits and
// corruption sub-seeds from Plan.Seed without a full RNG.
func splitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Injector executes one Plan against the simulator's hook points. All
// methods are nil-safe no-ops, so hook sites stay unconditional; a nil
// Injector (or a nil Plan) changes nothing. An Injector is single-run
// state: build a fresh one per simulated run.
type Injector struct {
	plan  Plan
	fired int
	first int64 // cycle of the first firing
	probe obs.Probe
}

// SetProbe attaches an event probe; every fault firing emits an
// obs.KindFault event naming the site. Nil-safe on a nil injector.
func (in *Injector) SetProbe(p obs.Probe) {
	if in == nil {
		return
	}
	in.probe = p
}

// NewInjector builds an injector for plan; nil plan yields a nil (inert)
// injector.
func NewInjector(plan *Plan) *Injector {
	if plan == nil || plan.Site == SiteNone {
		return nil
	}
	return &Injector{plan: *plan}
}

// Plan returns the plan this injector executes, and whether there is one.
func (in *Injector) Plan() (Plan, bool) {
	if in == nil {
		return Plan{}, false
	}
	return in.plan, true
}

// Fired reports whether the fault has fired at least once.
func (in *Injector) Fired() bool { return in != nil && in.fired > 0 }

// FiredCycle returns the cycle of the first firing (0 if never fired).
// Detection latency is measured from here.
func (in *Injector) FiredCycle() int64 {
	if in == nil {
		return 0
	}
	return in.first
}

// Firings returns how many times the fault has fired (0 for a nil
// injector). The pipeline reads it as a change count: a cycle in which it
// moved changed machine state.
func (in *Injector) Firings() int {
	if in == nil {
		return 0
	}
	return in.fired
}

// NextTrigger returns the trigger cycle of a transient fault that is not
// yet due after cycle, or math.MaxInt64 when none is pending (nil
// injector, structural site, trigger already reached). It is the fault's
// one timed event: once due, whether a hook fires depends only on the
// simulator state that reaches it.
func (in *Injector) NextTrigger(cycle int64) int64 {
	if in == nil || in.plan.Site == SiteNone || in.plan.Site.structural() || in.plan.TriggerCycle <= cycle {
		return math.MaxInt64
	}
	return in.plan.TriggerCycle
}

// due reports whether a transient fault at site may fire this cycle.
func (in *Injector) due(site Site, cycle int64) bool {
	return in != nil && in.plan.Site == site &&
		in.fired < in.plan.count() && cycle >= in.plan.TriggerCycle
}

// active reports whether a structural fault at site is enabled.
func (in *Injector) active(site Site) bool {
	return in != nil && in.plan.Site == site && site.structural()
}

// commit records one firing.
func (in *Injector) commit(cycle int64) {
	if in.fired == 0 {
		in.first = cycle
	}
	in.fired++
	if in.probe != nil {
		in.probe.Emit(obs.Event{
			Cycle: cycle, Kind: obs.KindFault, Track: obs.TrackFaults,
			PC: -1, Arg: int64(in.fired), Detail: in.plan.Site.String(),
		})
	}
}

// FlipValue XORs the plan's payload mask into v when a bit-flip fault at
// site is due. The second return reports whether the flip happened.
func (in *Injector) FlipValue(site Site, cycle int64, v uint64) (uint64, bool) {
	if !in.due(site, cycle) {
		return v, false
	}
	in.commit(cycle)
	return v ^ in.plan.mask(), true
}

// DropWakeup reports whether the issue stage should permanently drop the
// wakeup of the ready µop it is currently considering.
func (in *Injector) DropWakeup(cycle int64) bool {
	if !in.due(SiteIssueDrop, cycle) {
		return false
	}
	in.commit(cycle)
	return true
}

// FenceRequiresEmptySQ reports whether the fence issue condition should
// use the pre-PR-2 (buggy) rule — wait for a fully empty store queue.
// sqOccupancy is the current queue depth; the first cycle the buggy rule
// actually blocks a fence that the fixed rule would release counts as the
// firing.
func (in *Injector) FenceRequiresEmptySQ(cycle int64, sqOccupancy int) bool {
	if !in.active(SiteFenceStuck) {
		return false
	}
	if sqOccupancy > 0 && in.fired == 0 {
		in.commit(cycle)
	}
	return true
}

// FillDelay returns extra latency to add to one cache fill, firing at
// most Count times.
func (in *Injector) FillDelay(cycle int64) (int64, bool) {
	if !in.due(SiteFillDelay, cycle) {
		return 0, false
	}
	in.commit(cycle)
	return in.plan.delay(), true
}

// CacheFaultDue reports whether a cache-state corruption (SiteCacheLine
// or SiteReplacement) is due this cycle. The caller applies the
// corruption and, if it found state to corrupt, reports success through
// CommitCacheFault; an empty cache retries on later cycles.
func (in *Injector) CacheFaultDue(cycle int64) (Site, bool) {
	for _, s := range [...]Site{SiteCacheLine, SiteReplacement} {
		if in.due(s, cycle) {
			return s, true
		}
	}
	return SiteNone, false
}

// CommitCacheFault records that a due cache corruption found a target.
func (in *Injector) CommitCacheFault(cycle int64) { in.commit(cycle) }

// CorruptionSeed returns the sub-seed driving which line/bit a cache
// corruption picks.
func (in *Injector) CorruptionSeed() int64 {
	if in == nil {
		return 0
	}
	return int64(splitmix(uint64(in.plan.Seed) ^ 0xfa017))
}

// BreaksTaintALU reports whether the plan disables the taint engine's ALU
// propagation rule.
func (in *Injector) BreaksTaintALU() bool { return in.active(SiteTaintALU) }

// MispredictStorm reports whether the frontend should invert the current
// conditional branch's direction prediction. wouldPredictCorrectly is
// whether the unfaulted prediction matches the architectural outcome:
// the storm only spends budget (and counts a firing) on branches it
// actually breaks — inverting an already-wrong prediction changes
// nothing, so Fired would otherwise overstate the fault's effect.
func (in *Injector) MispredictStorm(cycle int64, wouldPredictCorrectly bool) bool {
	if !in.due(SiteMispredictStorm, cycle) || !wouldPredictCorrectly {
		return false
	}
	in.commit(cycle)
	return true
}

// PredictorStuck reports whether predictor training (bimodal direction
// counters, forwarding confidence counters) is frozen. The first
// suppressed update counts as the firing.
func (in *Injector) PredictorStuck(cycle int64) bool {
	if !in.active(SiteStuckPredictor) {
		return false
	}
	if in.fired == 0 {
		in.commit(cycle)
	}
	return true
}

// Rewrite applies program-level faults: under SiteMiscompile every
// arithmetic right shift becomes a logical one (it only diverges when a
// shifted value is negative, so catching it requires real data-dependent
// coverage). Other sites return prog unchanged. The rewrite counts as the
// firing when it changed at least one instruction.
func (in *Injector) Rewrite(prog isa.Program) isa.Program {
	if !in.active(SiteMiscompile) {
		return prog
	}
	out := make(isa.Program, len(prog))
	copy(out, prog)
	changed := false
	for i := range out {
		switch out[i].Op {
		case isa.SRA:
			out[i].Op = isa.SRL
			changed = true
		case isa.SRAI:
			out[i].Op = isa.SRLI
			changed = true
		}
	}
	if changed && in.fired == 0 {
		in.commit(0)
	}
	return out
}
