package core

import (
	"fmt"
	"math/rand"
	"strings"

	"pandora/internal/attack"
	"pandora/internal/cache"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
)

// Section VI-A2: "retrofitting constant-time programming". Two of the
// paper's proposed software mitigations, evaluated against the attacks
// they target:
//
//  1. Targeted clearing of data memory (zero the spilled intermediates
//     after each call) against the silent-store attack.
//  2. OR-ing a 1 into the most-significant bit position of operands
//     against significance/pipeline compression.
//
// Both restore secrecy; both cost the optimization's benefit — the
// trade-off the paper flags.

func init() {
	register(&Experiment{
		Name: "defenses", Artifact: "Section VI-A2",
		Title: "Retrofitted constant-time defenses: spill clearing and MSB pinning",
		Run:   runDefenses,
	})
}

func runDefenses(o Options) (Result, error) {
	var b strings.Builder
	metrics := map[string]float64{}
	b.WriteString("Section VI-A2 — retrofitting constant-time programming\n\n")

	// --- Defense 1: targeted clearing vs silent stores ---
	var vk, vp, ak [16]byte
	rng := rand.New(rand.NewSource(0xDEF))
	rng.Read(vk[:])
	rng.Read(vp[:])
	rng.Read(ak[:])

	undefended, err := attack.NewBSAESAttack(attack.DefaultBSAESConfig(), vk, vp, ak)
	if err != nil {
		return Result{}, err
	}
	silentC, nonSilentC, err := undefended.Calibrate()
	if err != nil {
		return Result{}, err
	}
	truth := undefended.VictimSlices()
	got, ok, err := undefended.RecoverSliceDirect(0, []uint16{truth[0]})
	if err != nil {
		return Result{}, err
	}
	undefendedWorks := ok && got == truth[0]

	defCfg := attack.DefaultBSAESConfig()
	defCfg.ClearSpills = true
	defended, err := attack.NewBSAESAttack(defCfg, vk, vp, ak)
	if err != nil {
		return Result{}, err
	}
	// In-place calibration is itself broken by the defense (the attacker
	// can never produce a silent reference against cleared memory); carry
	// the undefended threshold over, as a strong attacker would.
	defended.SetThreshold((silentC + nonSilentC) / 2)
	_, okDefended, err := defended.RecoverSliceDirect(0, []uint16{truth[0]})
	if err != nil {
		return Result{}, err
	}

	fmt.Fprintf(&b, "1. Targeted spill clearing vs the silent-store attack\n")
	fmt.Fprintf(&b, "   undefended server: correct guess detected = %v\n", undefendedWorks)
	fmt.Fprintf(&b, "   clearing server:   correct guess detected = %v\n", okDefended)
	fmt.Fprintf(&b, "   (the attacker's store can only silently match the cleared zeros,\n")
	fmt.Fprintf(&b, "    which reveal nothing about the victim)\n\n")
	metrics["clearing_blocks"] = b2f(undefendedWorks && !okDefended)

	// --- Defense 2: MSB pinning vs operand packing ---
	packKernel := func(secret uint64, pinMSB bool) string {
		pin := ""
		if pinMSB {
			pin = `
		addi x8, x0, 1
		slli x8, x8, 40      # the mitigation: pin a high bit
		or   x1, x1, x8
		or   x2, x2, x8`
		}
		return fmt.Sprintf(`
		addi x1, x0, %d      # secret operand
		addi x2, x0, 7%s
		addi x9, x0, 48
	loop:
		add  x3, x1, x2
		add  x4, x1, x2
		add  x5, x1, x2
		add  x6, x1, x2
		addi x9, x9, -1
		bne  x9, x0, loop
		halt
	`, secret, pin)
	}
	runPack := func(secret uint64, pinMSB bool) (int64, error) {
		cfg := pipeline.DefaultConfig()
		cfg.ALUPorts = 1
		cfg.Packing = true
		m, err := pipeline.New(cfg, mem.New(), cache.MustNewHierarchy(cache.DefaultHierConfig()))
		if err != nil {
			return 0, err
		}
		prog, err := asmMust(packKernel(secret, pinMSB))
		if err != nil {
			return 0, err
		}
		res, err := m.Run(prog)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	}
	nNarrow, err := runPack(12, false)
	if err != nil {
		return Result{}, err
	}
	nWide, err := runPack(1<<20, false)
	if err != nil {
		return Result{}, err
	}
	pNarrow, err := runPack(12, true)
	if err != nil {
		return Result{}, err
	}
	pWide, err := runPack(1<<20, true)
	if err != nil {
		return Result{}, err
	}
	leakBefore := abs64(nNarrow - nWide)
	leakAfter := abs64(pNarrow - pWide)
	cost := pNarrow - nNarrow

	fmt.Fprintf(&b, "2. MSB pinning vs operand packing (pipeline compression)\n")
	fmt.Fprintf(&b, "   unmitigated: narrow-secret %d cycles, wide-secret %d cycles (leak Δ=%d)\n",
		nNarrow, nWide, leakBefore)
	fmt.Fprintf(&b, "   OR 1<<40:    narrow-secret %d cycles, wide-secret %d cycles (leak Δ=%d)\n",
		pNarrow, pWide, leakAfter)
	fmt.Fprintf(&b, "   mitigation cost: +%d cycles — security back, the optimization's benefit gone\n\n", cost)
	metrics["pack_leak_before"] = float64(leakBefore)
	metrics["pack_leak_after"] = float64(leakAfter)
	metrics["pack_cost"] = float64(cost)

	b.WriteString("3. Architecting the optimization securely (Sn reuse) is evaluated by\n" +
		"   the `reuse` experiment: same protection, far lower cost.\n")

	pass := undefendedWorks && !okDefended && leakBefore > 0 && leakAfter == 0
	return Result{Name: "defenses", Text: b.String(), Metrics: metrics, Pass: pass}, nil
}
