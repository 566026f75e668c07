package core

import (
	"fmt"
	"math/rand"
	"strings"

	"pandora/internal/asm"
	"pandora/internal/attack"
	"pandora/internal/cache"
	"pandora/internal/dmp"
	"pandora/internal/ebpf"
	"pandora/internal/histo"
	"pandora/internal/isa"
	"pandora/internal/leakage"
	"pandora/internal/mem"
	"pandora/internal/mld"
	"pandora/internal/obs"
	"pandora/internal/pipeline"
)

func init() {
	register(&Experiment{
		Name: "table1", Artifact: "Table I",
		Title: "Leakage landscape derived from MLD probing, diffed against the paper",
		Run:   runTable1,
	})
	register(&Experiment{
		Name: "table2", Artifact: "Table II",
		Title: "Optimization classification by MLD input-kind signature",
		Run:   runTable2,
	})
	register(&Experiment{
		Name: "mld", Artifact: "Figures 2-3",
		Title: "Example microarchitectural leakage descriptors and channel capacities",
		Run:   runMLD,
	})
	register(&Experiment{
		Name: "fig4", Artifact: "Figure 4",
		Title: "Silent-store action sequences (cases A-D) as pipeline event timelines",
		Run:   runFig4,
	})
	register(&Experiment{
		Name: "fig5", Artifact: "Figure 5",
		Title: "Amplification gadget: single-store timing difference",
		Run:   runFig5,
	})
	register(&Experiment{
		Name: "fig6", Artifact: "Figure 6",
		Title: "BSAES runtime histograms for correct vs incorrect guesses",
		Run:   runFig6,
	})
	register(&Experiment{
		Name: "fig7", Artifact: "Figure 7",
		Title: "eBPF verifier gate and JITed attacker program",
		Run:   runFig7,
	})
	register(&Experiment{
		Name: "urg", Artifact: "Figure 1 / Section V-B",
		Title: "3-level IMP universal read gadget leaking protected memory",
		Run:   runURG,
	})
	register(&Experiment{
		Name: "urg2level", Artifact: "Section IV-D4",
		Title: "2-level IMP range analysis: no universal read gadget",
		Run:   runURG2Level,
	})
	register(&Experiment{
		Name: "prefetchbuffer", Artifact: "Section V-B3",
		Title: "Prefetch buffers do not mitigate the DMP attack (monitor L2)",
		Run:   runPrefetchBuffer,
	})
	register(&Experiment{
		Name: "keyrec", Artifact: "Section V-A3",
		Title: "End-to-end AES-128 key recovery through silent stores",
		Run:   runKeyRecovery,
	})
}

func runTable1(o Options) (Result, error) {
	got := leakage.TableIParallel(o.Parallel)
	want := leakage.PaperTableI()
	diffs := leakage.DiffTableI(got, want)

	var b strings.Builder
	b.WriteString("Table I — leakage landscape (derived by probing MLDs)\n\n")
	b.WriteString(leakage.RenderTableI(got))
	cells := len(leakage.Items()) * len(leakage.Columns())
	fmt.Fprintf(&b, "\nAgreement with the paper: %d/%d cells", cells-len(diffs), cells)
	if len(diffs) > 0 {
		b.WriteString("\nDisagreements:\n  " + strings.Join(diffs, "\n  "))
	}
	b.WriteString("\n")
	return Result{
		Name: "table1", Text: b.String(),
		Metrics: map[string]float64{"cells": float64(cells), "mismatches": float64(len(diffs))},
		Pass:    len(diffs) == 0,
	}, nil
}

func runTable2(Options) (Result, error) {
	entries := leakage.TableII()
	text := "Table II — optimization classification by MLD signature\n\n" +
		leakage.RenderTableII(entries)
	return Result{
		Name: "table2", Text: text,
		Metrics: map[string]float64{"classes": float64(len(entries))},
		Pass:    len(entries) == 7,
	}, nil
}

func runMLD(Options) (Result, error) {
	var b strings.Builder
	b.WriteString("Figures 2-3 — example microarchitectural leakage descriptors\n\n")
	for _, d := range mld.Examples() {
		fmt.Fprintf(&b, "%-60s  [%s]\n", d.String(), d.Signature().Category())
	}

	// Channel-capacity illustrations (Section IV-A3).
	b.WriteString("\nChannel capacity bounds (log2 of distinct outcomes):\n")
	zs := mld.ZeroSkipMul()
	var outs []uint64
	for v := uint64(0); v < 8; v++ {
		outs = append(outs, zs.MustEval(mld.Assignment{"i1": mld.Inst{Args: [2]uint64{v, 5}}}))
	}
	fmt.Fprintf(&b, "  zero_skip_mul:   %.2f bits per observation\n", mld.Capacity(outs))

	cr := mld.CacheRand()
	cs := mld.NewCacheState(32, 64)
	outs = outs[:0]
	for s := uint64(0); s < 32; s++ {
		outs = append(outs, cr.MustEval(mld.Assignment{"i1": mld.Inst{Addr: s * 64}, "cache": cs}))
	}
	warm := cs.Clone()
	warm.Insert(0)
	outs = append(outs, cr.MustEval(mld.Assignment{"i1": mld.Inst{Addr: 0}, "cache": warm}))
	fmt.Fprintf(&b, "  cache_rand(32):  %.2f bits per observation\n", mld.Capacity(outs))

	return Result{
		Name: "mld", Text: b.String(),
		Metrics: map[string]float64{"descriptors": float64(len(mld.Examples()))},
		Pass:    len(mld.Examples()) == 9,
	}, nil
}

// fig4Case runs one silent-store scenario and extracts its store-queue
// event timeline.
func fig4Case(name string, cfg pipeline.Config, warm bool, src string) (string, pipeline.Stats, error) {
	mm := mem.New()
	mm.Write(0x800, 8, 7)
	h := cache.MustNewHierarchy(cache.DefaultHierConfig())
	if warm {
		h.Access(0x800, 7, false)
	}
	tr := obs.NewTrace()
	cfg.Probe = tr
	m, err := pipeline.New(cfg, mm, h)
	if err != nil {
		return "", pipeline.Stats{}, err
	}
	prog, err := asmMust(src)
	if err != nil {
		return "", pipeline.Stats{}, err
	}
	if _, err := m.Run(prog); err != nil {
		return "", pipeline.Stats{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", name)
	writeFig4Timeline(&b, tr)
	return b.String(), m.Stats(), nil
}

// writeFig4Timeline renders the store-queue events of a trace in the
// paper's Figure 4 action-sequence vocabulary, one line per step.
func writeFig4Timeline(b *strings.Builder, tr *obs.Trace) {
	storeData := map[uint64]uint64{} // store µop seq → data, from addr-resolved
	step := func(e obs.Event, action, detail string) {
		fmt.Fprintf(b, "  cycle %5d  #%-4d pc=%-4d %-20s", e.Cycle, e.Seq, e.PC, action)
		if detail != "" {
			b.WriteString(" " + detail)
		}
		b.WriteString("\n")
	}
	for _, e := range tr.Events {
		switch e.Kind {
		case obs.KindAddrResolved:
			storeData[e.Seq] = uint64(e.Arg)
			step(e, "addr-resolved", fmt.Sprintf("addr=%#x", e.Addr))
		case obs.KindUopt:
			if e.Detail == "ss-load" {
				step(e, "ssload-issue", fmt.Sprintf("returns at %d", e.Cycle+e.Arg))
			}
		case obs.KindSSLoadReturn:
			detail := "match (silent candidate)"
			if e.Detail == "mismatch" {
				detail = fmt.Sprintf("mismatch (read %#x, storing %#x)", uint64(e.Arg), storeData[e.Seq])
			}
			step(e, "ssload-return", detail)
		case obs.KindSSLoadNoPort, obs.KindSSLoadLate, obs.KindSQHead:
			step(e, e.Kind.String(), "")
		case obs.KindFillRequest:
			step(e, "fill-request", fmt.Sprintf("latency=%d", e.Arg))
		case obs.KindDequeue:
			switch e.Detail {
			case "":
				// An in-order perform completes all three steps at once.
				step(e, "response-from-mem", "")
				step(e, "store-sent-to-cache", "")
				step(e, "sq-dequeue", "")
			case "silent":
				step(e, "sq-dequeue-silent", "")
			default:
				step(e, "sq-dequeue", e.Detail)
			}
		}
	}
}

func runFig4(o Options) (Result, error) {
	ssCfg := func() pipeline.Config {
		c := pipeline.DefaultConfig()
		c.SilentStores = pipeline.SilentStoreConfig{Scheme: pipeline.SSReadPortStealing}
		return c
	}

	delayed := `
		addi x1, x0, 0x800
		addi x2, x0, %d
		addi x9, x0, 1000
		div  x3, x9, x2
		sd   x2, 0(x1)
		halt
	`
	var b strings.Builder
	b.WriteString("Figure 4 — silent-store action sequences\n\n")
	metrics := map[string]float64{}

	// Case A: values match, SS-Load returns in time → silent dequeue.
	text, stats, err := fig4Case("Case A: store value == loaded (silent store)",
		ssCfg(), true, fmt.Sprintf(delayed, 7))
	if err != nil {
		return Result{}, err
	}
	b.WriteString(text + "\n")
	metrics["caseA_silent"] = float64(stats.SilentStores)
	if err := o.err(); err != nil {
		return Result{}, err
	}

	// Case B: value mismatch.
	text, stats, err = fig4Case("Case B: store value != loaded (non-silent store)",
		ssCfg(), true, fmt.Sprintf(delayed, 8))
	if err != nil {
		return Result{}, err
	}
	b.WriteString(text + "\n")
	metrics["caseB_mismatch"] = float64(stats.NonSilentChecks)
	if err := o.err(); err != nil {
		return Result{}, err
	}

	// Case C: no free load port.
	cfgC := ssCfg()
	cfgC.LoadPorts = 1
	text, stats, err = fig4Case("Case C: no free load port (non-silent store)", cfgC, true, `
		addi x1, x0, 0x800
		addi x2, x0, 7
		sd   x2, 0(x1)
		ld   x10, 64(x1)
		ld   x11, 128(x1)
		ld   x12, 192(x1)
		ld   x13, 256(x1)
		ld   x14, 320(x1)
		ld   x15, 384(x1)
		halt
	`)
	if err != nil {
		return Result{}, err
	}
	b.WriteString(text + "\n")
	metrics["caseC_noport"] = float64(stats.SSLoadNoPort)
	if err := o.err(); err != nil {
		return Result{}, err
	}

	// Case D: SS-Load returns late (cold line).
	text, stats, err = fig4Case("Case D: SS-Load returns late (non-silent store)", ssCfg(), false, `
		addi x1, x0, 0x800
		addi x2, x0, 7
		sd   x2, 0(x1)
		halt
	`)
	if err != nil {
		return Result{}, err
	}
	b.WriteString(text)
	metrics["caseD_late"] = float64(stats.SSLoadLate)

	pass := metrics["caseA_silent"] == 1 && metrics["caseB_mismatch"] == 1 &&
		metrics["caseC_noport"] >= 1 && metrics["caseD_late"] == 1
	return Result{Name: "fig4", Text: b.String(), Metrics: metrics, Pass: pass}, nil
}

// gadgetRun measures one amplification-gadget run (Figure 5 shape).
func gadgetRun(storeVal int64) (int64, error) {
	cfg := pipeline.DefaultConfig()
	cfg.SilentStores = pipeline.SilentStoreConfig{Scheme: pipeline.SSReadPortStealing}
	cfg.SQSize = 5
	hcfg := cache.DefaultHierConfig()
	hcfg.L1.Ways = 1
	mm := mem.New()
	mm.Write(0x800, 8, 7)
	mm.Write(0x4040, 8, 0x800+0x4000)
	h := cache.MustNewHierarchy(hcfg)
	h.Access(0x800, 7, false)
	m, err := pipeline.New(cfg, mm, h)
	if err != nil {
		return 0, err
	}
	src := fmt.Sprintf(`
		addi x1, x0, 0x4040
		addi x3, x0, 0x800
		addi x6, x0, %d
		ld   x4, 0(x1)
		ld   x5, 0(x4)
		ld   x7, 0x4000(x4)
		ld   x8, 0x8000(x4)
		ld   x9, 0xc000(x4)
		ld   x10, 0x10000(x4)
		ld   x11, 0x14000(x4)
		ld   x12, 0x18000(x4)
		ld   x13, 0x1c000(x4)
		sd   x6, 0(x3)
		halt
	`, storeVal)
	prog, err := asmMust(src)
	if err != nil {
		return 0, err
	}
	res, err := m.Run(prog)
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

func runFig5(o Options) (Result, error) {
	silent, err := gadgetRun(7)
	if err != nil {
		return Result{}, err
	}
	if err := o.err(); err != nil {
		return Result{}, err
	}
	nonSilent, err := gadgetRun(8)
	if err != nil {
		return Result{}, err
	}
	gap := nonSilent - silent
	text := fmt.Sprintf(`Figure 5 — amplification gadget

  delay sub-gadget : load of a cold line (result feeds the flush)
  flush sub-gadget : eight dependent loads covering the target line's set
  target store     : checked by the SS-Load before the flush lands

  silent target store     : %5d cycles
  non-silent target store : %5d cycles
  amplified difference    : %5d cycles (≈ memory latency; paper: >100)
`, silent, nonSilent, gap)
	return Result{
		Name: "fig5", Text: text,
		Metrics: map[string]float64{
			"silent_cycles": float64(silent), "nonsilent_cycles": float64(nonSilent),
			"gap_cycles": float64(gap),
		},
		Pass: gap >= 100,
	}, nil
}

func runFig6(o Options) (Result, error) {
	samples := o.samples(40)
	var vk, vp, ak [16]byte
	rng := rand.New(rand.NewSource(0xF16))
	rng.Read(vk[:])
	rng.Read(vp[:])
	rng.Read(ak[:])
	a, err := attack.NewBSAESAttack(attack.DefaultBSAESConfig(), vk, vp, ak)
	if err != nil {
		return Result{}, err
	}
	if err := o.err(); err != nil {
		return Result{}, err
	}
	// Samples are sharded over the worker pool with per-sample seeds, so
	// the histograms are identical at every worker count.
	correct, incorrect, err := a.Figure6Parallel(samples, o.Parallel, 0xF16B)
	if err != nil {
		return Result{}, err
	}
	sc, si := correct.Summarize(), incorrect.Summarize()
	gap := si.Median - sc.Median

	var b strings.Builder
	b.WriteString("Figure 6 — BSAES runtime histograms (single instrumented store)\n\n")
	b.WriteString(histo.Render(map[string]*histo.Histogram{
		"Correct guess (silent)":       correct,
		"Incorrect guess (non-silent)": incorrect,
	}, 40))
	fmt.Fprintf(&b, "\nmedian gap = %d cycles (paper: >100, easily distinguishable)\n", gap)
	b.WriteString("\nNote: gem5 plus a real OS gives the paper's histograms their spread;\n" +
		"this simulator is deterministic, so each mode collapses to a spike.\n" +
		"The reproduced shape is the separation: two non-overlapping modes a\n" +
		"memory-latency apart, keyed by one dynamic store's silence.\n")
	return Result{
		Name: "fig6", Text: b.String(),
		Metrics: map[string]float64{
			"gap_cycles": float64(gap),
			"overlap":    overlapFraction(correct, incorrect),
			"samples":    float64(samples),
		},
		Pass: gap >= 100 && overlapFraction(correct, incorrect) == 0,
	}, nil
}

// overlapFraction reports how much of the two distributions' supports
// overlap (0 = perfectly separable).
func overlapFraction(a, b *histo.Histogram) float64 {
	sa, sb := a.Summarize(), b.Summarize()
	lo, hi := sa.Max, sb.Min
	if sb.Max < sa.Min {
		lo, hi = sb.Max, sa.Min
	}
	if hi > lo {
		return 0
	}
	return 1
}

func runFig7(Options) (Result, error) {
	env := &ebpf.Env{Maps: []ebpf.Map{
		{Name: "Z", ElemSize: 8, NElems: 24, Base: 0x10000},
		{Name: "Y", ElemSize: 1, NElems: 4096, Base: 0x100000},
		{Name: "X", ElemSize: 64, NElems: 256, Base: 0x200000},
	}}
	checked := ebpf.Figure7Program(0, 1, 2, 24, 8, 1, 1)
	unchecked := ebpf.Figure7ProgramUnchecked(0, 1, 2, 24, 8, 1, 1)

	var b strings.Builder
	b.WriteString("Figure 7 — attacker program vs the eBPF sandbox\n\n(a) bytecode (with NULL checks — bounds checks in disguise):\n")
	for i, in := range checked {
		fmt.Fprintf(&b, "  %2d: %v\n", i, in)
	}
	errUnchecked := ebpf.Verify(unchecked, env)
	errChecked := ebpf.Verify(checked, env)
	fmt.Fprintf(&b, "\nverifier on unchecked variant: %v\n", errUnchecked)
	fmt.Fprintf(&b, "verifier on checked variant:   accepted (err=%v)\n", errChecked)

	isaProg, err := ebpf.Compile(checked, env)
	if err != nil {
		return Result{}, err
	}
	b.WriteString("\n(b) JITed inner lookup+load sequence (cmp/jae/shl/add shape):\n")
	for pc := 6; pc < 14 && pc < len(isaProg); pc++ {
		fmt.Fprintf(&b, "  %2d: %v\n", pc, isaProg[pc])
	}
	pass := errChecked == nil && errUnchecked != nil
	return Result{
		Name: "fig7", Text: b.String(),
		Metrics: map[string]float64{"jit_len": float64(len(isaProg))},
		Pass:    pass,
	}, nil
}

func runURG(o Options) (Result, error) {
	secret := []byte("The secret opens Pandora's box.")
	n := o.secretLen(8)
	if n > len(secret) {
		n = len(secret)
	}
	cfg := attack.DefaultURGConfig()
	cfg.Trace = o.Trace
	u, err := attack.NewURG(cfg, secret)
	if err != nil {
		return Result{}, err
	}
	if err := o.err(); err != nil {
		return Result{}, err
	}
	got, correct, err := u.LeakRangeParallel(o.Parallel, n)
	text := fmt.Sprintf(`Figure 1 / Section V-B — universal read gadget via the 3-level IMP

  sandbox program : Figure 7a (verifier-approved, JITed)
  planted target  : Z[N-1] = &secret - &Y[0] (never architecturally read)
  receiver        : Prime+Probe on L2, majority vote across replays

  leaked   : %q
  expected : %q
  accuracy : %d/%d bytes
  prefetcher reads of protected memory: %d
`, string(got), string(secret[:n]), correct, n, u.IMP.Stats.ProtectedReads)
	if err != nil {
		text += fmt.Sprintf("  error: %v\n", err)
	}
	return Result{
		Name: "urg", Text: text,
		Metrics: map[string]float64{
			"bytes": float64(n), "correct": float64(correct),
			"protected_reads": float64(u.IMP.Stats.ProtectedReads),
		},
		Pass: err == nil && correct == n,
	}, nil
}

func runURG2Level(o Options) (Result, error) {
	cfg := attack.DefaultURGConfig()
	cfg.Levels = dmp.TwoLevel
	cfg.Replays = 4
	u, err := attack.NewURG(cfg, []byte{0x5A})
	if err != nil {
		return Result{}, err
	}
	_, leakErr := u.LeakByte(0)
	text := fmt.Sprintf(`Section IV-D4 — IMP indirection-depth range analysis

The 2-level IMP prefetches Y[Z[i+Δ]] only: the attacker-chosen address is
dereferenced (line fill at the secret's own address) but the *value* read
there never feeds another access, so no transmitter for data at rest
beyond [b, b+Δ) exists and byte recovery fails:

  2-level leak attempt: %v
  level-2 chains launched: %d (must be 0)
`, leakErr, u.IMP.Stats.Level2Confirmed)
	return Result{
		Name: "urg2level", Text: text,
		Metrics: map[string]float64{"lvl2_confirmed": float64(u.IMP.Stats.Level2Confirmed)},
		Pass:    leakErr != nil && u.IMP.Stats.Level2Confirmed == 0,
	}, nil
}

func runPrefetchBuffer(o Options) (Result, error) {
	cfg := attack.DefaultURGConfig()
	cfg.PrefetchBuffer = true
	cfg.Trace = o.Trace
	secret := []byte{0xDE, 0xAD}
	u, err := attack.NewURG(cfg, secret)
	if err != nil {
		return Result{}, err
	}
	got, correct, err := u.LeakRangeParallel(o.Parallel, 2)
	text := fmt.Sprintf(`Section V-B3 — prefetch buffers aggravate but do not mitigate

With a prefetch buffer in front of L1, IMP fills bypass L1 — but they
still fill L2, so the receiver simply monitors L2:

  leaked %x, expected %x (%d/2 correct)
`, got, secret, correct)
	if err != nil {
		text += fmt.Sprintf("  error: %v\n", err)
	}
	return Result{
		Name: "prefetchbuffer", Text: text,
		Metrics: map[string]float64{"correct": float64(correct)},
		Pass:    err == nil && correct == 2,
	}, nil
}

func runKeyRecovery(o Options) (Result, error) {
	var vk, vp, ak [16]byte
	rng := rand.New(rand.NewSource(0x4B4559))
	rng.Read(vk[:])
	rng.Read(vp[:])
	rng.Read(ak[:])
	a, err := attack.NewBSAESAttack(attack.DefaultBSAESConfig(), vk, vp, ak)
	if err != nil {
		return Result{}, err
	}
	if err := o.err(); err != nil {
		return Result{}, err
	}
	truth := a.VictimSlices()
	window := 64
	if o.Full {
		window = 1 << 16
	}
	got, err := a.RecoverKeyParallel(o.Parallel, func(slot int) []uint16 {
		out := make([]uint16, window)
		base := uint16(0)
		if !o.Full {
			base = truth[slot] &^ uint16(window-1)
		}
		for i := range out {
			out[i] = base + uint16(i)
		}
		return out
	})
	if err != nil {
		return Result{}, err
	}
	match := got == vk
	text := fmt.Sprintf(`Section V-A3 — key recovery through silent stores

  victim key     : %x
  recovered key  : %x
  match          : %v
  value window   : %d per slot (paper bound: 65536 per slot, 524288 total)
`, vk, got, match, window)
	return Result{
		Name: "keyrec", Text: text,
		Metrics: map[string]float64{"window": float64(window), "match": b2f(match)},
		Pass:    match,
	}, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// asmMust assembles fixed experiment kernels.
func asmMust(src string) (isa.Program, error) {
	return asm.Assemble(src)
}
