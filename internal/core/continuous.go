package core

import (
	"fmt"
	"strings"

	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
	"pandora/internal/uopt"
)

// Section VI-B: continuous/trace-based optimization "only creates novel
// security implications in specific circumstances". This experiment
// measures both ends of the spectrum the paper describes:
//
//   - µ-op fusion (implemented today): the fusion predicate is opcodes
//     and register names — pure control-flow information — so no operand
//     data reaches the observable. Safe.
//   - strength reduction keyed on a specific operand's value: manifests
//     "due to specific operand data beyond control flow". Unsafe.

func init() {
	register(&Experiment{
		Name: "continuous", Artifact: "Section VI-B",
		Title: "Continuous optimization: µ-op fusion is safe, strength reduction is not",
		Run:   runContinuous,
	})
}

func runContinuous(Options) (Result, error) {
	var b strings.Builder
	metrics := map[string]float64{}
	b.WriteString("Section VI-B — continuous/trace-based optimization\n\n")

	// --- µ-op fusion: data-independent speed-up ---
	fusionKernel := func(secret int64) string {
		// A self-referential pointer chase puts the addi+load pair on the
		// loop-carried critical path; a second fused pair reads the
		// secret, so any data dependence would surface as time.
		return fmt.Sprintf(`
			addi x2, x0, 0x700
			sd   x2, 0x700(x0)    # mem[0x700] = 0x700 (self loop)
			addi x2, x0, %d
			sd   x2, 0x708(x0)    # mem[0x708] = secret
			fence
			addi x9, x0, 40
			addi x3, x0, 0x700
		loop:
			addi x1, x3, 0        # fused pair on the critical path
			ld   x3, 0(x1)
			addi x4, x3, 8        # fused pair reading the secret
			ld   x5, 0(x4)
			addi x9, x9, -1
			bne  x9, x0, loop
			halt
		`, secret)
	}
	runF := func(fuse bool, secret int64) (int64, error) {
		cfg := pipeline.DefaultConfig()
		cfg.FuseAddiLoad = fuse
		m, err := pipeline.New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
		if err != nil {
			return 0, err
		}
		prog, err := asmMust(fusionKernel(secret))
		if err != nil {
			return 0, err
		}
		res, err := m.Run(prog)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}
	fusedA, err := runF(true, 7)
	if err != nil {
		return Result{}, err
	}
	fusedB, err := runF(true, 123456789)
	if err != nil {
		return Result{}, err
	}
	unfused, err := runF(false, 7)
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(&b, "µ-op fusion (addi+load):\n")
	fmt.Fprintf(&b, "  benefit : %d -> %d cycles (fusion on)\n", unfused, fusedA)
	fmt.Fprintf(&b, "  leak    : secret A %d cycles, secret B %d cycles (Δ = %d — fusion keys on opcodes, not data)\n\n",
		fusedA, fusedB, abs64(fusedA-fusedB))
	metrics["fusion_benefit"] = float64(unfused - fusedA)
	metrics["fusion_leak"] = float64(abs64(fusedA - fusedB))

	// --- Strength reduction: operand-keyed speed-up ---
	srKernel := func(secret int64) string {
		return fmt.Sprintf(`
			addi x1, x0, %d
			addi x2, x0, 12345
			addi x5, x0, 48
		loop:
			mul  x3, x2, x1
			mul  x3, x3, x1
			addi x5, x5, -1
			bne  x5, x0, loop
			halt
		`, secret)
	}
	runSR := func(secret int64) (int64, error) {
		cfg := pipeline.DefaultConfig()
		cfg.Simplifier = uopt.Simplifier{StrengthReduction: true}
		m, err := pipeline.New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
		if err != nil {
			return 0, err
		}
		prog, err := asmMust(srKernel(secret))
		if err != nil {
			return 0, err
		}
		res, err := m.Run(prog)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}
	pow2, err := runSR(64)
	if err != nil {
		return Result{}, err
	}
	odd, err := runSR(65)
	if err != nil {
		return Result{}, err
	}
	fmt.Fprintf(&b, "strength reduction (mul by power of two -> shift):\n")
	fmt.Fprintf(&b, "  leak    : secret=64 %d cycles, secret=65 %d cycles (Δ = %d — whether the\n",
		pow2, odd, odd-pow2)
	fmt.Fprintf(&b, "            secret is a power of two is observable)\n\n")
	metrics["strengthred_leak"] = float64(odd - pow2)

	b.WriteString("The dividing line the paper draws: an optimization whose trigger is a\n" +
		"function of instruction identity leaks only control flow (already public\n" +
		"to constant-time code); one whose trigger reads operand values is a new\n" +
		"transmitter.\n")

	pass := metrics["fusion_benefit"] > 0 && metrics["fusion_leak"] == 0 && metrics["strengthred_leak"] > 0
	return Result{Name: "continuous", Text: b.String(), Metrics: metrics, Pass: pass}, nil
}
