package core

import (
	"context"
	"fmt"
	"strings"

	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/parallel"
	"pandora/internal/pipeline"
	"pandora/internal/taint"
	"pandora/internal/uopt"
)

// This file provides measured *timing witnesses* for the Table I analysis:
// for each optimization class, a pair of victim kernels that differ only
// in a secret value. With the optimization enabled the cycle counts
// differ (the leak); on the baseline they are identical (the data was
// safe). These runs turn the MLD-derived table into observed pipeline
// behavior.

// witnessSecretAddr is the memory word every witness kernel loads its
// secret from. Keeping the secret in memory (instead of an immediate)
// means the same kernels serve two masters: the timing runs contrast two
// planted values, and the taint scanner labels the word and checks that
// leak events appear exactly when the optimization is enabled
// (TestWitnessScanPairing).
const witnessSecretAddr = 0x7100

// witness is one paired-kernel experiment.
type witness struct {
	name     string
	item     string // the Table I row it witnesses
	config   func() pipeline.Config
	baseline func() pipeline.Config
	// kernel is the victim program text; it loads the secret from
	// witnessSecretAddr.
	kernel string
	// secrets are the two values to contrast.
	secrets [2]uint64
	// setup optionally preconditions memory/caches.
	setup func(m *mem.Memory, h *cache.Hierarchy)
}

func base() pipeline.Config { return pipeline.DefaultConfig() }

// rfcWitnessConfig is a wide core with a deliberately tight physical
// register file, so rename — not issue — is the bottleneck and register
// sharing has an observable effect.
func rfcWitnessConfig() pipeline.Config {
	c := base()
	c.PhysRegs = 48
	c.ROBSize = 128
	c.IQSize = 96
	c.FetchWidth = 8
	c.RetireWidth = 8
	c.ALUPorts = 8
	return c
}

// stlfWitnessConfig delays store address resolution (the window the
// forwarding predictor speculates across) and stretches the squash bubble
// so a single mis-forward replay is not hidden under the post-halt store
// drain. The baseline shares the config, so the contrast isolates the
// predictor itself; the baseline never squashes.
func stlfWitnessConfig() pipeline.Config {
	c := base()
	c.StoreAddrLat = 6
	c.SquashPenalty = 48
	return c
}

func witnesses() []witness {
	return []witness{
		{
			name: "zero-skip multiply", item: "Operands: Int mul (CS)",
			config: func() pipeline.Config {
				c := base()
				c.Simplifier = uopt.Simplifier{ZeroSkipMul: true}
				return c
			},
			baseline: base,
			kernel: `
				addi x28, x0, 0x7100
				ld   x1, 0(x28)     # secret operand
				addi x2, x0, 12345
				addi x5, x0, 64
			loop:
				mul  x3, x1, x2     # dependent chain of multiplies
				mul  x3, x1, x3
				addi x5, x5, -1
				bne  x5, x0, loop
				halt
			`,
			secrets: [2]uint64{0, 3},
		},
		{
			name: "early-exit division", item: "Operands: Int div (CS)",
			config: func() pipeline.Config {
				c := base()
				c.Simplifier = uopt.Simplifier{EarlyExitDiv: true}
				return c
			},
			baseline: base,
			kernel: `
				addi x28, x0, 0x7100
				ld   x1, 0(x28)     # secret dividend
				addi x2, x0, 3
				addi x5, x0, 32
			loop:
				div  x3, x1, x2
				addi x5, x5, -1
				bne  x5, x0, loop
				halt
			`,
			secrets: [2]uint64{9, 0x7fffffff},
		},
		{
			name: "operand packing", item: "Operands: Int simple ops (PC)",
			config: func() pipeline.Config {
				c := base()
				c.ALUPorts = 1
				c.Packing = true
				return c
			},
			baseline: func() pipeline.Config {
				c := base()
				c.ALUPorts = 1
				return c
			},
			// Independent add pairs: all-narrow operands co-issue on
			// the single ALU port when packing is enabled.
			kernel: `
				addi x28, x0, 0x7100
				ld   x1, 0(x28)     # secret operand
				addi x2, x0, 7
				addi x9, x0, 48
			loop:
				add  x3, x1, x2
				add  x4, x1, x2
				add  x5, x1, x2
				add  x6, x1, x2
				addi x9, x9, -1
				bne  x9, x0, loop
				halt
			`,
			secrets: [2]uint64{12, 1 << 20},
		},
		{
			name: "computation reuse (Sv)", item: "Operands: Int mul (CR)",
			config: func() pipeline.Config {
				c := base()
				c.Reuse = uopt.SchemeSv
				return c
			},
			baseline: base,
			// The multiply's operand alternates between 1000 and the
			// secret each iteration. If the secret equals 1000, every
			// dynamic instance matches the memoized operands and the
			// chain collapses to reuse hits; otherwise every lookup
			// misses against the previous iteration's entry.
			kernel: `
				addi x28, x0, 0x7100
				addi x1, x0, 1000
				ld   x2, 0(x28)     # secret: equals 1000 or not
				addi x4, x0, 3
				addi x9, x0, 40
			loop:
				mul  x5, x1, x4     # memoized instance (operand alternates)
				mul  x7, x5, x4     # dependent multiply: same story
				add  x6, x1, x0     # swap x1 <-> x2
				add  x1, x2, x0
				add  x2, x6, x0
				addi x9, x9, -1
				bne  x9, x0, loop
				halt
			`,
			secrets: [2]uint64{1000, 1001},
		},
		{
			name: "load value prediction", item: "Data: Load (VP)",
			config: func() pipeline.Config {
				c := base()
				c.ValuePred = uopt.VPConfig{Scheme: uopt.VPLastValue, Threshold: 2}
				return c
			},
			baseline: base,
			// A loop whose load feeds a long dependent chain. The
			// stored value either stays constant (predictable) or
			// changes every iteration (squash storm).
			kernel: `
				addi x28, x0, 0x7100
				ld   x27, 0(x28)    # secret mask
				addi x1, x0, 0x900
				addi x2, x0, 5
				sd   x2, 0(x1)
				addi x9, x0, 48
			loop:
				ld   x3, 0(x1)      # predicted load
				mul  x4, x3, x2     # dependent work
				mul  x4, x4, x2
				add  x5, x5, x4
				add  x6, x3, x2
				and  x6, x6, x27    # secret selects constant vs varying
				sd   x6, 0(x1)
				addi x9, x9, -1
				bne  x9, x0, loop
				halt
			`,
			// secret 0: store writes 0 forever (after iteration 1 the
			// load is fully predictable); secret -1: the stored value
			// keeps changing, so every confident prediction squashes.
			secrets: [2]uint64{0, 0xfff},
		},
		{
			name: "register-file compression", item: "At rest: Register file (RFC)",
			config: func() pipeline.Config {
				c := rfcWitnessConfig()
				c.RFC = uopt.RFCAnyValue
				return c
			},
			baseline: rfcWitnessConfig,
			// Eight accumulators with per-register increments scaled by
			// the secret: secret 0 keeps every in-flight result at value 0
			// (all collapse onto one shared register under RFC); secret 1
			// makes every result distinct (full rename pressure on the
			// tight free list). The increments are distinct primes larger
			// than the iteration count, so no two live accumulator values
			// ever coincide when the secret is non-zero.
			kernel: `
				addi x28, x0, 0x7100
				ld   x27, 0(x28)    # secret scale
				addi x10, x0, 257
				addi x11, x0, 263
				addi x12, x0, 269
				addi x13, x0, 271
				addi x14, x0, 277
				addi x15, x0, 281
				addi x16, x0, 283
				addi x17, x0, 293
				mul  x10, x10, x27
				mul  x11, x11, x27
				mul  x12, x12, x27
				mul  x13, x13, x27
				mul  x14, x14, x27
				mul  x15, x15, x27
				mul  x16, x16, x27
				mul  x17, x17, x27
				addi x9, x0, 40
				addi x20, x0, 1
				div  x21, x9, x20   # long op at the ROB head: younger
				div  x22, x21, x20  # results must hold their registers
				div  x23, x22, x20  # until it retires — unless RFC
				div  x24, x23, x20  # returned them at writeback
			loop:
				add  x1, x1, x10
				add  x2, x2, x11
				add  x3, x3, x12
				add  x4, x4, x13
				add  x5, x5, x14
				add  x6, x6, x15
				add  x7, x7, x16
				add  x8, x8, x17
				addi x9, x9, -1
				bne  x9, x0, loop
				halt
			`,
			secrets: [2]uint64{0, 1},
		},
		{
			name: "store-to-leak forwarding", item: "Data: Store address (StLF)",
			config: func() pipeline.Config {
				c := stlfWitnessConfig()
				c.Speculation = pipeline.SpeculationConfig{StLF: true}
				return c
			},
			baseline: stlfWitnessConfig,
			// Warm the contested line so the post-halt store-queue drain is
			// cheap; otherwise its cold miss gates the end of the run and
			// hides the replay bubble.
			setup: func(m *mem.Memory, h *cache.Hierarchy) {
				m.Write(0x3000, 8, 0)
				h.Access(0x3000, 0, false)
			},
			// A store whose address selects between aliasing the next load
			// (secret 0) and missing it by one word on the final iteration
			// (secret 5). The trained forwarding predictor speculatively
			// forwards before the store address resolves: an address match
			// verifies (fast), a mismatch replays (slow) — Schwarz et al.'s
			// Store-to-Leak channel. Without the predictor the load waits
			// for resolution and then forwards (2 cycles) or hits L1 (also
			// 2 cycles), so the baseline is secret-independent.
			kernel: `
				addi x28, x0, 0x7100
				ld   x26, 0(x28)    # secret word offset
				slli x27, x26, 3
				lui  x10, 3         # 0x3000: the contested address
				addi x11, x0, 6
				addi x12, x0, 81
			loop:
				slti x16, x11, 2    # 1 on the final iteration only
				mul  x17, x16, x27  # secret-scaled store offset
				add  x18, x10, x17
				sd   x12, 0(x18)    # address resolves 6 cycles after issue
				ld   x13, 0(x10)    # forwards speculatively once trained
				addi x12, x12, 7
				addi x11, x11, -1
				bne  x11, x0, loop
				halt
			`,
			secrets: [2]uint64{0, 5},
		},
		{
			name: "wrong-path vector lane", item: "Data: Wrong-path load (SV)",
			config: func() pipeline.Config {
				c := base()
				c.Speculation = pipeline.SpeculationConfig{WrongPath: true}
				return c
			},
			baseline: base,
			// A forward-taken branch (static BTFN predicts not-taken)
			// guarded by a long division chain: while it is unresolved the
			// wrong-path lane load fetches 0x2000 + secret*64 and warms the
			// cache before the squash. The correct-path probe of 0x2000
			// then hits exactly when the secret is 0 — the squashed
			// access's fill is architectural dead weight but observable
			// state, the speculative-vectorization channel.
			kernel: `
				addi x28, x0, 0x7100
				ld   x1, 0(x28)     # secret lane index
				slli x2, x1, 6
				lui  x3, 2
				add  x2, x2, x3     # lane address 0x2000 + secret*64
				addi x8, x0, 1
				div  x9, x8, x8     # delay branch resolution
				div  x9, x9, x8
				div  x9, x9, x8
				div  x9, x9, x8
				div  x9, x9, x8
				div  x9, x9, x8
				div  x9, x9, x8
				div  x9, x9, x8
				bne  x9, x0, resume # taken; predicted not-taken
				ld   x5, 0(x2)      # wrong-path lane access (squashed)
				jal  x0, done
			resume:
				lui  x6, 2
				ld   x7, 0(x6)      # probe: hits iff secret == 0
			done:
				halt
			`,
			secrets: [2]uint64{0, 1},
		},
		{
			name: "silent stores", item: "Data: Store (SS)",
			config: func() pipeline.Config {
				c := base()
				c.SilentStores = pipeline.SilentStoreConfig{Scheme: pipeline.SSReadPortStealing}
				c.SQSize = 4
				return c
			},
			baseline: func() pipeline.Config {
				c := base()
				c.SQSize = 4
				return c
			},
			setup: func(m *mem.Memory, h *cache.Hierarchy) {
				for i := uint64(0); i < 8; i++ {
					m.Write(0xa00+i*64, 8, 7)
					h.Access(0xa00+i*64, 7, false)
				}
			},
			// Eight stores over stale value 7; when the secret is 7 they
			// all dequeue silently (in one cycle each group). The delay
			// div depends on the loaded secret so it issues after the
			// load returns and still retires ahead of the stores.
			kernel: `
				addi x28, x0, 0x7100
				ld   x2, 0(x28)     # secret store data
				addi x1, x0, 0xa00
				div  x3, x2, x2     # delay retirement so SS-Loads win
				sd   x2, 0(x1)
				sd   x2, 64(x1)
				sd   x2, 128(x1)
				sd   x2, 192(x1)
				sd   x2, 256(x1)
				sd   x2, 320(x1)
				sd   x2, 384(x1)
				sd   x2, 448(x1)
				halt
			`,
			secrets: [2]uint64{7, 8},
		},
	}
}

// runWitness returns the cycle counts of the two kernels under cfg.
func runWitness(w witness, mk func() pipeline.Config) (a, b int64, err error) {
	run := func(secret uint64) (int64, error) {
		res, err := runWitnessKernel(context.Background(), w, mk(), secret, nil)
		return res.Cycles, err
	}
	if a, err = run(w.secrets[0]); err != nil {
		return
	}
	b, err = run(w.secrets[1])
	return
}

// runWitnessKernel builds w's machine from cfg, plants secret at
// witnessSecretAddr and runs the kernel once. st, when non-nil, shadows
// the run with the secret word labeled "secret" — the scanner's view of
// the same kernel; the timing runs pass nil and stay taint-free.
func runWitnessKernel(ctx context.Context, w witness, cfg pipeline.Config, secret uint64, st *taint.State) (pipeline.Result, error) {
	m := mem.New()
	h, err := cache.NewHierarchy(cache.DefaultHierConfig())
	if err != nil {
		return pipeline.Result{}, err
	}
	if w.setup != nil {
		w.setup(m, h)
	}
	m.Write(witnessSecretAddr, 8, secret)
	if st != nil {
		if _, err := st.DefineSecret(taint.Secret{Name: "secret", Base: witnessSecretAddr, Len: 8}); err != nil {
			return pipeline.Result{}, err
		}
		cfg.Taint = st
	}
	flag, stop := pipeline.CancelFromContext(ctx)
	defer stop()
	cfg.Cancel = flag
	mach, err := pipeline.New(cfg, m, h)
	if err != nil {
		return pipeline.Result{}, err
	}
	prog, err := asmMust(w.kernel)
	if err != nil {
		return pipeline.Result{}, err
	}
	return mach.Run(prog)
}

// WitnessReport holds one measured witness outcome.
type WitnessReport struct {
	Name, Item           string
	OptA, OptB           int64 // cycles with the optimization, per secret
	BaseA, BaseB         int64 // cycles on the baseline
	LeakDelta, BaseDelta int64
}

// RunWitnessesParallel executes the timing witnesses sharded over a
// worker pool (workers <= 0 selects GOMAXPROCS). Every witness builds
// its own machines, so reports are identical at every worker count and
// are returned in the canonical witness order.
func RunWitnessesParallel(workers int) ([]WitnessReport, error) {
	return parallel.Map(context.Background(), workers, witnesses(),
		func(_ context.Context, _ int, w witness) (WitnessReport, error) {
			oa, ob, err := runWitness(w, w.config)
			if err != nil {
				return WitnessReport{}, fmt.Errorf("witness %s: %w", w.name, err)
			}
			ba, bb, err := runWitness(w, w.baseline)
			if err != nil {
				return WitnessReport{}, fmt.Errorf("witness %s baseline: %w", w.name, err)
			}
			return WitnessReport{
				Name: w.name, Item: w.item,
				OptA: oa, OptB: ob, BaseA: ba, BaseB: bb,
				LeakDelta: abs64(oa - ob), BaseDelta: abs64(ba - bb),
			}, nil
		})
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func init() {
	register(&Experiment{
		Name: "witness", Artifact: "Table I (measured)",
		Title: "Per-class timing witnesses: secret-dependent cycles appear only with the optimization",
		Run:   runWitnessExperiment,
	})
	register(&Experiment{
		Name: "reuse", Artifact: "Section VI-A3",
		Title: "Sv vs Sn computation reuse: security/performance trade-off",
		Run:   runReuseAblation,
	})
}

func runWitnessExperiment(o Options) (Result, error) {
	reports, err := RunWitnessesParallel(o.Parallel)
	if err != nil {
		return Result{}, err
	}
	var b strings.Builder
	b.WriteString("Measured timing witnesses for Table I\n\n")
	fmt.Fprintf(&b, "%-28s %-34s %10s %10s\n", "Optimization", "Data item", "opt Δcyc", "base Δcyc")
	b.WriteString(strings.Repeat("-", 86) + "\n")
	pass := true
	for _, r := range reports {
		fmt.Fprintf(&b, "%-28s %-34s %10d %10d\n", r.Name, r.Item, r.LeakDelta, r.BaseDelta)
		if r.LeakDelta == 0 || r.BaseDelta != 0 {
			pass = false
		}
	}
	b.WriteString("\nopt Δcyc > 0 with base Δcyc = 0 means the secret is observable only\nthrough the optimization — the Table I transition S→U, measured.\n")
	m := map[string]float64{"witnesses": float64(len(reports))}
	for _, r := range reports {
		m["leak_"+strings.ReplaceAll(r.Name, " ", "_")] = float64(r.LeakDelta)
	}
	return Result{Name: "witness", Text: b.String(), Metrics: m, Pass: pass}, nil
}

// runReuseAblation contrasts the Sv and Sn reuse variants (Section VI-A3):
// Sv leaks operand values but reuses more; Sn is value-blind.
func runReuseAblation(Options) (Result, error) {
	kernel := func(secret uint64) string {
		// The multiply operand alternates between 1000 and the secret, so
		// value-keyed reuse hits exactly when the secret matches.
		return fmt.Sprintf(`
			addi x1, x0, 1000
			addi x2, x0, %d
			addi x4, x0, 3
			addi x9, x0, 40
		loop:
			mul  x5, x1, x4
			mul  x7, x5, x4
			add  x6, x1, x0
			add  x1, x2, x0
			add  x2, x6, x0
			addi x9, x9, -1
			bne  x9, x0, loop
			halt
		`, secret)
	}
	run := func(scheme uopt.ReuseScheme, secret uint64) (int64, uint64, error) {
		cfg := base()
		cfg.Reuse = scheme
		m, err := pipeline.New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
		if err != nil {
			return 0, 0, err
		}
		prog, err := asmMust(kernel(secret))
		if err != nil {
			return 0, 0, err
		}
		res, err := m.Run(prog)
		if err != nil {
			return 0, 0, err
		}
		return res.Cycles, res.Stats.ReuseHits, nil
	}
	svEq, svEqHits, err := run(uopt.SchemeSv, 1000)
	if err != nil {
		return Result{}, err
	}
	svNe, _, err := run(uopt.SchemeSv, 1001)
	if err != nil {
		return Result{}, err
	}
	snEq, snEqHits, err := run(uopt.SchemeSn, 1000)
	if err != nil {
		return Result{}, err
	}
	snNe, _, err := run(uopt.SchemeSn, 1001)
	if err != nil {
		return Result{}, err
	}
	svLeak := abs64(svEq - svNe)
	snLeak := abs64(snEq - snNe)
	text := fmt.Sprintf(`Section VI-A3 — architecting security-conscious microarchitecture

Dynamic instruction reuse, value-keyed (Sv) vs name-keyed (Sn):

  Sv: cycles(secret==memoized) = %4d, cycles(differs) = %4d  → leak Δ = %d
  Sn: cycles(secret==memoized) = %4d, cycles(differs) = %4d  → leak Δ = %d
  reuse hits: Sv = %d, Sn = %d

Sv's hit condition depends on operand *values*: the secret modulates
timing. Sn keys on register names only: same timing either way — the
"slight tweak" the paper highlights as still-efficient, more-secure.
`, svEq, svNe, svLeak, snEq, snNe, snLeak, svEqHits, snEqHits)
	return Result{
		Name: "reuse", Text: text,
		Metrics: map[string]float64{
			"sv_leak": float64(svLeak), "sn_leak": float64(snLeak),
			"sv_hits": float64(svEqHits), "sn_hits": float64(snEqHits),
		},
		Pass: svLeak > 0 && snLeak == 0,
	}, nil
}
