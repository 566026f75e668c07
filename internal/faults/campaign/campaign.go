// Package campaign is the fault-injection campaign runner behind
// `pandora fault`: it sweeps seeded fault plans (internal/faults) over
// randomly generated programs and measures, per fault site, which
// detector caught the fault and how many cycles after injection.
//
// Each trial is a self-contained differential experiment. A seeded
// program is generated (internal/diffcheck), run once on the functional
// emulator (the golden run), once on the pipeline without a fault (the
// reference run, fixing the expected cycle count and statistics), and
// once with the fault armed. Whatever the faulty run reports — a watchdog
// stall, an invariant violation, an oracle mismatch at retire — or leaves
// behind — an architectural state diff against the golden run, a timing
// deviation from the reference run — is attributed to a named detector.
// A control arm runs the same protocol with no fault armed; any detection
// there is a false positive and fails Verify.
//
// Campaigns checkpoint: with Options.Journal set, every completed trial
// is appended to an internal/journal file as one MAC'd JSON line under
// a header that fingerprints the campaign (seed, trial counts, sites,
// and the memory image the generator programs run against).
// Options.Resume skips the journaled trials, and because every trial's
// randomness derives from parallel.Seed(Seed, globalIndex), a resumed
// campaign reports results byte-identical to an uninterrupted one.
package campaign

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pandora/internal/cache"
	"pandora/internal/diffcheck"
	"pandora/internal/emu"
	"pandora/internal/faults"
	"pandora/internal/isa"
	"pandora/internal/journal"
	"pandora/internal/mem"
	"pandora/internal/parallel"
	"pandora/internal/pipeline"
)

// DefaultTrials is the per-site trial count when Options.Trials is zero.
const DefaultTrials = 8

// ControlSite is the site name of the no-fault control arm.
const ControlSite = "control"

// Detector names, in the order a trial checks them.
const (
	DetWatchdog  = "watchdog"   // forward-progress supervisor (incl. MaxCycles)
	DetInvariant = "invariant"  // per-cycle structural self-checks
	DetOracle    = "oracle"     // retire verification / divergence checks
	DetStateDiff = "state-diff" // final architectural state vs golden run
	DetTiming    = "timing"     // cycle count / statistics vs reference run
)

// Options parameterizes a campaign.
type Options struct {
	// Seed is the campaign master seed; every trial derives its own seed
	// from it and its stable global index.
	Seed int64
	// Trials is the per-site trial count (0 = DefaultTrials).
	Trials int
	// Control is the no-fault control-arm trial count (0 = Trials).
	Control int
	// Sites selects the fault sites to sweep (nil = faults.CampaignSites).
	Sites []faults.Site
	// Workers bounds trial concurrency (0 = GOMAXPROCS).
	Workers int
	// Journal, when non-empty, is the checkpoint file: completed trials
	// append as JSON lines and Resume skips them.
	Journal string
	// Resume continues a journaled campaign instead of restarting it.
	Resume bool
	// DumpDir, when non-empty, receives the CoreDump JSON of every trial
	// the supervisor aborted (watchdog stalls, invariant violations).
	DumpDir string
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)

	// linear runs every pipeline under the reference scheduler, which
	// ticks every cycle; the equivalence test sets it.
	linear bool
}

func (o *Options) trials() int {
	if o.Trials > 0 {
		return o.Trials
	}
	return DefaultTrials
}

func (o *Options) control() int {
	if o.Control > 0 {
		return o.Control
	}
	return o.trials()
}

func (o *Options) sites() []faults.Site {
	if len(o.Sites) > 0 {
		return o.Sites
	}
	return faults.CampaignSites()
}

func (o *Options) log(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Detection is one detector firing on one trial.
type Detection struct {
	Detector string `json:"detector"`
	// Cycle is when the detector fired (the abort cycle for supervised
	// errors, the end of the run for state/timing comparisons).
	Cycle int64 `json:"cycle"`
	// Latency is Cycle minus the fault's first-firing cycle.
	Latency int64  `json:"latency"`
	Detail  string `json:"detail,omitempty"`
}

// Trial is one completed experiment: the plan that ran and everything the
// detectors reported. Trials serialize to the journal and the report.
type Trial struct {
	Site    string       `json:"site"`
	Index   int          `json:"index"`
	Seed    int64        `json:"seed"`
	Plan    *faults.Plan `json:"plan,omitempty"` // nil on the control arm
	Mask    uint16       `json:"mask"`
	Toggles string       `json:"toggles"`
	// RefCycles is the fault-free reference run's cycle count.
	RefCycles int64 `json:"ref_cycles"`
	// Fired/FiredCycle report whether and when the fault actually
	// triggered; an unfired trial cannot count against detection rate.
	Fired      bool        `json:"fired"`
	FiredCycle int64       `json:"fired_cycle,omitempty"`
	Detections []Detection `json:"detections,omitempty"`
	// Note records infrastructure failures (golden or reference run
	// errors); a healthy campaign has none.
	Note string `json:"note,omitempty"`
}

// Detected reports whether any detector fired.
func (t *Trial) Detected() bool { return len(t.Detections) > 0 }

// SiteSummary aggregates one site's trials.
type SiteSummary struct {
	Site   string `json:"site"`
	Trials int    `json:"trials"`
	// Fired counts trials whose fault actually triggered; DetectionRate
	// is Detected/Fired (the control arm keeps both at zero).
	Fired         int     `json:"fired"`
	Detected      int     `json:"detected"`
	DetectionRate float64 `json:"detection_rate"`
	// MeanLatency averages the first detection's latency (cycles from
	// injection to detection) over detected trials.
	MeanLatency float64 `json:"mean_latency_cycles"`
	// Detectors counts first detections per detector name.
	Detectors map[string]int `json:"detectors,omitempty"`
}

// Report is a campaign's full result: per-site summaries plus every
// trial, in canonical (site, index) order so that a resumed campaign
// serializes byte-identically to an uninterrupted one.
type Report struct {
	Seed           int64         `json:"seed"`
	TrialsPerSite  int           `json:"trials_per_site"`
	ControlTrials  int           `json:"control_trials"`
	FalsePositives int           `json:"false_positives"`
	Sites          []SiteSummary `json:"sites"`
	Trials         []Trial       `json:"trials"`
}

// Format renders the report as the human-readable per-site table both
// `pandora fault` and the serve fault runner print. Deterministic: the
// detector summaries are sorted by name (map iteration order is not).
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault campaign: seed=%d trials/site=%d control=%d\n\n",
		r.Seed, r.TrialsPerSite, r.ControlTrials)
	fmt.Fprintf(&b, "%-12s %7s %6s %9s %6s %12s  %s\n",
		"site", "trials", "fired", "detected", "rate", "mean-latency", "detectors")
	for _, s := range r.Sites {
		dets := make([]string, 0, len(s.Detectors))
		for name, n := range s.Detectors {
			dets = append(dets, fmt.Sprintf("%s:%d", name, n))
		}
		sort.Strings(dets)
		rate := "-"
		if s.Fired > 0 {
			rate = fmt.Sprintf("%3.0f%%", 100*s.DetectionRate)
		}
		lat := "-"
		if s.Detected > 0 {
			lat = fmt.Sprintf("%.1f", s.MeanLatency)
		}
		fmt.Fprintf(&b, "%-12s %7d %6d %9d %6s %12s  %s\n",
			s.Site, s.Trials, s.Fired, s.Detected, rate, lat, strings.Join(dets, " "))
	}
	b.WriteString("\n")
	return b.String()
}

// workItem is one scheduled trial. global is its position in the full
// canonical work list — the seed derives from it, so resuming with a
// shorter pending list cannot shift any trial's randomness.
type workItem struct {
	site   faults.Site // SiteNone on the control arm
	name   string
	index  int
	global int
}

// Run executes the campaign and returns its report. Completed trials are
// journaled as they finish when Options.Journal is set; a context
// cancellation or worker error returns early with the journal intact, and
// a later Run with Resume picks up the remaining trials.
func Run(ctx context.Context, opts Options) (*Report, error) {
	sites := opts.sites()
	var items []workItem
	for _, s := range sites {
		for i := 0; i < opts.trials(); i++ {
			items = append(items, workItem{site: s, name: s.String(), index: i, global: len(items)})
		}
	}
	for i := 0; i < opts.control(); i++ {
		items = append(items, workItem{site: faults.SiteNone, name: ControlSite, index: i, global: len(items)})
	}

	done := map[string]Trial{}
	var j *journal.Writer
	if opts.Journal != "" {
		var err error
		j, done, err = openJournal(&opts)
		if err != nil {
			return nil, err
		}
		defer j.Close()
	}
	if opts.DumpDir != "" {
		if err := os.MkdirAll(opts.DumpDir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}

	var pending []workItem
	for _, it := range items {
		if _, ok := done[trialKey(it.name, it.index)]; !ok {
			pending = append(pending, it)
		}
	}
	if n := len(items) - len(pending); n > 0 {
		opts.log("campaign: resuming: %d/%d trials already journaled", n, len(items))
	}

	results, err := parallel.MapSeeded(ctx, opts.Workers, pending,
		func(_ int, it workItem) int64 { return parallel.Seed(opts.Seed, it.global) },
		func(_ context.Context, _ int, seed int64, it workItem) (Trial, error) {
			tr := runTrial(&opts, it, seed)
			if j != nil {
				if err := j.Append(tr); err != nil {
					return tr, fmt.Errorf("campaign: %w", err)
				}
			}
			opts.log("campaign: %s trial %d: fired=%v detections=%d",
				tr.Site, tr.Index, tr.Fired, len(tr.Detections))
			return tr, nil
		})
	if err != nil {
		return nil, err
	}

	trials := make([]Trial, 0, len(items))
	for _, t := range done {
		trials = append(trials, t)
	}
	trials = append(trials, results...)
	sitePos := map[string]int{}
	for i, s := range sites {
		sitePos[s.String()] = i
	}
	sitePos[ControlSite] = len(sites)
	sort.Slice(trials, func(a, b int) bool {
		if pa, pb := sitePos[trials[a].Site], sitePos[trials[b].Site]; pa != pb {
			return pa < pb
		}
		return trials[a].Index < trials[b].Index
	})

	return buildReport(&opts, sites, trials), nil
}

func buildReport(opts *Options, sites []faults.Site, trials []Trial) *Report {
	r := &Report{
		Seed:          opts.Seed,
		TrialsPerSite: opts.trials(),
		ControlTrials: opts.control(),
		Trials:        trials,
	}
	order := make([]string, 0, len(sites)+1)
	for _, s := range sites {
		order = append(order, s.String())
	}
	order = append(order, ControlSite)
	bySite := map[string][]Trial{}
	for _, t := range trials {
		bySite[t.Site] = append(bySite[t.Site], t)
	}
	for _, name := range order {
		sum := SiteSummary{Site: name, Trials: len(bySite[name])}
		var latSum int64
		for _, t := range bySite[name] {
			if t.Fired {
				sum.Fired++
			}
			if !t.Detected() {
				continue
			}
			sum.Detected++
			first := t.Detections[0]
			latSum += first.Latency
			if sum.Detectors == nil {
				sum.Detectors = map[string]int{}
			}
			sum.Detectors[first.Detector]++
		}
		if sum.Fired > 0 {
			sum.DetectionRate = float64(sum.Detected) / float64(sum.Fired)
		}
		if sum.Detected > 0 {
			sum.MeanLatency = float64(latSum) / float64(sum.Detected)
		}
		if name == ControlSite {
			r.FalsePositives = sum.Detected
		}
		r.Sites = append(r.Sites, sum)
	}
	return r
}

// Verify applies the campaign's acceptance gates: every swept site fired
// and was caught by at least one detector, the control arm produced zero
// detections, and no trial hit an infrastructure failure.
func Verify(r *Report) error {
	var problems []string
	for _, s := range r.Sites {
		switch {
		case s.Site == ControlSite:
			if s.Detected != 0 {
				problems = append(problems,
					fmt.Sprintf("control arm reported %d false positive(s)", s.Detected))
			}
		case s.Fired == 0:
			problems = append(problems,
				fmt.Sprintf("site %s: fault never fired in %d trials", s.Site, s.Trials))
		case s.Detected == 0:
			problems = append(problems,
				fmt.Sprintf("site %s: fired in %d trials, never detected", s.Site, s.Fired))
		}
	}
	for _, t := range r.Trials {
		if t.Note != "" {
			problems = append(problems,
				fmt.Sprintf("trial %s/%d: %s", t.Site, t.Index, t.Note))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("campaign: %s", strings.Join(problems, "; "))
	}
	return nil
}

// Tail registers: x28 is the generator's JALR staging register and x11/x12
// are scratch destinations; all are dead once the generated body ends, so
// the site-specific tail may clobber them freely.
const (
	tailBase = 28
	tailScr  = 11
	tailScr2 = 12
)

// siteTail returns the instructions a site needs appended (before the
// final HALT — generated branch targets are absolute, so prepending would
// break them, but nothing ever targets the HALT) to guarantee the fault
// has something to bite: a fence/store pair for the stuck-fence rule, a
// store-to-load forwarding pair, a final never-overwritten store for the
// LSQ flip, and a negative arithmetic shift the miscompile rewrite must
// corrupt.
func siteTail(site faults.Site) isa.Program {
	bases, _ := diffcheck.ScratchRegions()
	regionA, regionB := int64(bases[0]), int64(bases[1])
	switch site {
	case faults.SiteFenceStuck:
		// The SB's SQ slot is allocated at rename, long before the FENCE
		// reaches the ROB head — under the buggy empty-queue rule the
		// fence waits on it while it waits on the fence.
		return isa.Program{
			{Op: isa.ADDI, Rd: tailBase, Imm: regionA},
			{Op: isa.FENCE},
			{Op: isa.SB, Rs1: tailBase, Imm: 0x40},
		}
	case faults.SiteForward:
		return isa.Program{
			{Op: isa.ADDI, Rd: tailBase, Imm: regionB},
			{Op: isa.SD, Rs1: tailBase, Rs2: tailBase, Imm: 0x1c0},
			{Op: isa.LD, Rd: tailScr, Rs1: tailBase, Imm: 0x1c0},
		}
	case faults.SiteLSQ:
		// A last-in-program-order store: if the flip lands here, nothing
		// can overwrite the corrupted bytes before the final state diff.
		return isa.Program{
			{Op: isa.ADDI, Rd: tailScr, Imm: 0x5a5a},
			{Op: isa.ADDI, Rd: tailBase, Imm: regionA},
			{Op: isa.SD, Rs1: tailBase, Rs2: tailScr, Imm: 0x1c8},
		}
	case faults.SiteMiscompile:
		// SRAI of -1 is the one shape the SRA→SRL rewrite cannot fake.
		return isa.Program{
			{Op: isa.ADDI, Rd: tailScr2, Imm: -1},
			{Op: isa.SRAI, Rd: tailScr2, Rs1: tailScr2, Imm: 1},
		}
	}
	return nil
}

// adjustProgram inserts the site tail before the program's final HALT.
func adjustProgram(site faults.Site, p isa.Program) isa.Program {
	tail := siteTail(site)
	if len(tail) == 0 || len(p) == 0 || p[len(p)-1].Op != isa.HALT {
		return p
	}
	out := make(isa.Program, 0, len(p)+len(tail))
	out = append(out, p[:len(p)-1]...)
	out = append(out, tail...)
	out = append(out, p[len(p)-1])
	return out
}

// siteCount is the per-site firing budget: value flips that may land on
// dead state fire a few times to raise the odds one lands on live state;
// faults that are certainly observable fire once.
func siteCount(s faults.Site) int {
	switch s {
	case faults.SitePRF:
		// A single committed-file flip is almost always architecturally
		// dead in generated code: every scratch register is rewritten
		// each loop iteration, and in-flight consumers bypass the
		// committed file entirely (they read their producer µop). Arm a
		// persistent corruption instead — every retire after the trigger
		// flips — so each register's final write is corrupted too and the
		// end-state diff must see it. 256 exceeds any generated program's
		// dynamic instruction count.
		return 256
	case faults.SiteLSQ, faults.SiteForward, faults.SiteFillDelay:
		return 2
	case faults.SiteMispredictStorm:
		// Each forced mispredict costs one BranchPenalty redirect; a few
		// firings separate the storm from single-cycle timing noise.
		return 4
	}
	return 1
}

// runPipe is one pipeline run under the campaign's fixed protocol: fresh
// memory image, default (LRU) hierarchy, the toggle mask's configuration
// with invariant checking on (every run is supervised by the pipeline's
// forward-progress watchdog).
func runPipe(opts *Options, prog isa.Program, mask diffcheck.ToggleMask, inj *faults.Injector) (pipeline.Result, *pipeline.Machine, error) {
	pm := mem.New()
	diffcheck.InitMemory(pm)
	hier := cache.MustNewHierarchy(cache.DefaultHierConfig())
	cfg := diffcheck.PipeConfig(mask)
	cfg.Faults = inj
	cfg.LinearScheduler = opts.linear
	m := pipeline.MustNew(cfg, pm, hier)
	res, err := m.Run(prog)
	return res, m, err
}

// runTrial executes one trial. All randomness comes from seed; the result
// is a pure function of (seed, site, index), which is what makes resumed
// campaigns byte-identical to uninterrupted ones.
func runTrial(opts *Options, it workItem, seed int64) Trial {
	rng := rand.New(rand.NewSource(seed))
	prog := adjustProgram(it.site, diffcheck.Generate(rng))
	// TogPredictor is withheld: value prediction's squash-and-replay both
	// rescues stuck µops (un-sticking dropped wakeups) and perturbs
	// timing on its own, which would blur detection attribution. TogSpec
	// and TogStLF are withheld for the same reason — mispredict squashes
	// and forwarding replays also reset stuck µops.
	mask := diffcheck.ToggleMask(rng.Intn(diffcheck.AllMasks)) &^
		(diffcheck.TogPredictor | diffcheck.TogSpec | diffcheck.TogStLF)
	tr := Trial{Site: it.name, Index: it.index, Seed: seed, Mask: uint16(mask), Toggles: mask.String()}

	golden := emu.New(mem.New())
	diffcheck.InitMemory(golden.Mem)
	if err := golden.Run(prog, 1_000_000); err != nil {
		tr.Note = "golden run failed: " + err.Error()
		return tr
	}
	refRes, _, refErr := runPipe(opts, prog, mask, nil)
	if refErr != nil {
		tr.Note = "reference run failed: " + refErr.Error()
		return tr
	}
	tr.RefCycles = refRes.Cycles

	if it.site == faults.SiteNone {
		// Control arm: identical protocol, no fault armed. Any detection
		// below is a false positive.
		tr.runSubject(opts, prog, mask, nil, golden, refRes)
		return tr
	}

	window := tr.RefCycles * 3 / 4
	if it.site == faults.SiteMispredictStorm {
		// Fetch-time site: the frontend finishes fetching (and with it the
		// last conditional-branch prediction the storm could invert) long
		// before the run ends — the tail of RefCycles is memory drain. A
		// trigger drawn from the full window would usually arm after the
		// last branch fetch and never fire.
		window = tr.RefCycles / 4
	}
	if window < 1 {
		window = 1
	}
	plan := &faults.Plan{
		Site:         it.site,
		TriggerCycle: 1 + rng.Int63n(window),
		Count:        siteCount(it.site),
		Seed:         seed,
	}
	tr.Plan = plan
	tr.runSubject(opts, prog, mask, faults.NewInjector(plan), golden, refRes)
	return tr
}

// runSubject executes the (possibly faulty) subject run and applies every
// detector in order: supervised errors first, then the end-state diff
// against the golden run, then the timing comparison against the
// reference run.
func (tr *Trial) runSubject(opts *Options, prog isa.Program, mask diffcheck.ToggleMask,
	inj *faults.Injector, golden *emu.Machine, refRes pipeline.Result) {
	// The rewrite is the program-level fault (miscompile); the pipeline's
	// inline oracle runs the same rewritten program, so only the golden
	// run of the original can convict it.
	subjProg := inj.Rewrite(prog)
	res, m, err := runPipe(opts, subjProg, mask, inj)
	tr.Fired = inj.Fired()
	tr.FiredCycle = inj.FiredCycle()

	detect := func(detector string, cycle int64, detail string) {
		tr.Detections = append(tr.Detections, Detection{
			Detector: detector,
			Cycle:    cycle,
			Latency:  cycle - tr.FiredCycle,
			Detail:   detail,
		})
	}

	if err != nil {
		// Every failed Run is a *pipeline.StallError: the fault campaign
		// never cancels.
		se := err.(*pipeline.StallError)
		tr.writeDump(opts, se)
		switch se.Reason {
		case pipeline.ReasonWatchdog, pipeline.ReasonMaxCycles:
			detect(DetWatchdog, se.Dump.Cycle, se.Error())
		default:
			detect(classifyCause(err), se.Dump.Cycle, se.Error())
		}
		return
	}

	if d := stateDiff(m, golden); d != "" {
		detect(DetStateDiff, res.Cycles, d)
	}
	if res.Cycles != refRes.Cycles {
		detect(DetTiming, res.Cycles,
			fmt.Sprintf("ran %d cycles, reference ran %d", res.Cycles, refRes.Cycles))
	} else if res.Stats != refRes.Stats {
		detect(DetTiming, res.Cycles, "statistics diverge from the reference run")
	}
}

// classifyCause separates the per-cycle structural self-checks (every
// message is prefixed "invariant:") from the oracle's value checks.
func classifyCause(err error) string {
	if strings.Contains(err.Error(), "invariant:") {
		return DetInvariant
	}
	return DetOracle
}

// stateDiff compares the pipeline's final architectural state against the
// golden run, skipping RDCYCLE-derived values exactly as the differential
// harness does. Returns "" when the states agree.
func stateDiff(m *pipeline.Machine, golden *emu.Machine) string {
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if m.RegTainted(r) {
			continue
		}
		if got, want := m.Reg(r), golden.Regs[r]; got != want {
			return fmt.Sprintf("%v = %#x, golden run has %#x", r, got, want)
		}
	}
	for _, d := range mem.Diff(m.Memory(), golden.Mem, 0) {
		if m.MemTainted(d.Addr) {
			continue
		}
		return fmt.Sprintf("mem[%#x] = %#x, golden run has %#x", d.Addr, d.A, d.B)
	}
	return ""
}

// writeDump captures a supervised abort's CoreDump as a JSON artifact.
func (tr *Trial) writeDump(opts *Options, se *pipeline.StallError) {
	if opts.DumpDir == "" {
		return
	}
	b := se.Dump.JSON()
	path := filepath.Join(opts.DumpDir, fmt.Sprintf("%s-%03d.json", tr.Site, tr.Index))
	if werr := os.WriteFile(path, b, 0o644); werr == nil {
		opts.log("campaign: %s trial %d: core dump written to %s", tr.Site, tr.Index, path)
	}
}
