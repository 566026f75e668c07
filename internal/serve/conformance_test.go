package serve

import (
	"context"
	"slices"
	"strings"
	"testing"

	"pandora/internal/core"
	"pandora/internal/kernels"
)

// TestEveryScenarioReachableFromEveryFrontEnd is the registry
// conformance gate: every scenario in the core registry — built-ins and
// the self-registered crypto kernels alike — is reachable exactly
// through the front ends its Supports declares: core.ScanScenario,
// core.RunTrace, and serve job submission (Canonical). Unsupported
// directions must be rejected with an error, never a panic.
func TestEveryScenarioReachableFromEveryFrontEnd(t *testing.T) {
	all := core.Scenarios()
	if len(all) < 8+len(kernels.Kernels()) {
		t.Fatalf("registry has %d scenarios, want the 8 built-ins plus %d kernels", len(all), len(kernels.Kernels()))
	}
	for _, s := range all {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			_, scanErr := Canonical(JobSpec{Kind: KindScan, Scenario: s.Name})
			if s.Supports(core.AnalysisScan) != (scanErr == nil) {
				t.Errorf("scan job submission: supports=%v err=%v", s.Supports(core.AnalysisScan), scanErr)
			}
			_, traceErr := Canonical(JobSpec{Kind: KindTrace, Scenario: s.Name})
			if s.Supports(core.AnalysisTrace) != (traceErr == nil) {
				t.Errorf("trace job submission: supports=%v err=%v", s.Supports(core.AnalysisTrace), traceErr)
			}
			if !s.Supports(core.AnalysisScan) {
				if _, err := core.ScanScenario(context.Background(), s.Name); err == nil {
					t.Error("ScanScenario accepted an unsupported scenario")
				}
			}
			if !s.Supports(core.AnalysisTrace) {
				if _, err := core.RunTrace(context.Background(), s.Name, 0, 1); err == nil {
					t.Error("RunTrace accepted an unsupported scenario")
				}
			}
		})
	}
}

// TestKernelScenariosRegistered: importing the serve package (which any
// front end does) is enough to make every kernel a scan AND trace
// scenario — the "registration stays open" acceptance criterion.
func TestKernelScenariosRegistered(t *testing.T) {
	for _, k := range kernels.Kernels() {
		s, ok := core.ScenarioByName(k.Name)
		if !ok {
			t.Errorf("kernel %q not in the scenario registry", k.Name)
			continue
		}
		if !s.Supports(core.AnalysisScan) || !s.Supports(core.AnalysisTrace) {
			t.Errorf("kernel %q: scan=%v trace=%v, want both", k.Name,
				s.Supports(core.AnalysisScan), s.Supports(core.AnalysisTrace))
		}
	}
}

// TestScanJobCanonicalizesMachineSpec: two spellings of one machine are
// one cache key, and the canonical spelling is what the spec stores.
func TestScanJobCanonicalizesMachineSpec(t *testing.T) {
	src := "halt\n"
	a, canonA, err := Key(JobSpec{Kind: KindScan, Source: src, Machine: " vp:8 , silentstores "})
	if err != nil {
		t.Fatal(err)
	}
	b, canonB, err := Key(JobSpec{Kind: KindScan, Source: src, Machine: "silentstores,vp:8"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equivalent machine spellings hash to different keys:\n%s\n%s", a, b)
	}
	if canonA.Machine != "silentstores,vp:8" || canonB.Machine != canonA.Machine {
		t.Fatalf("canonical machine = %q / %q, want %q", canonA.Machine, canonB.Machine, "silentstores,vp:8")
	}
	// A different machine still means a different job.
	c, _, err := Key(JobSpec{Kind: KindScan, Source: src, Machine: "vp:9,silentstores"})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different machines share a key")
	}
	// And a bad spec surfaces the structured grammar error.
	_, _, err = Key(JobSpec{Kind: KindScan, Source: src, Machine: "vp:zero"})
	if err == nil || !strings.Contains(err.Error(), "bad argument") {
		t.Fatalf("bad machine spec error = %v, want a bad-argument SpecError", err)
	}
}

// TestContractJobCanonicalization: kernel/variant subsets canonicalize
// to library/harness order, empty selections expand to the full sets,
// and unknown names are rejected.
func TestContractJobCanonicalization(t *testing.T) {
	canon, err := Canonical(JobSpec{Kind: KindContract})
	if err != nil {
		t.Fatal(err)
	}
	if len(canon.Kernels) != len(kernels.Names()) || len(canon.Variants) == 0 {
		t.Fatalf("empty selection canonicalized to %v / %v", canon.Kernels, canon.Variants)
	}
	if canon.Masks != 512 {
		t.Fatalf("default masks = %d, want 512", canon.Masks)
	}
	reordered, err := Canonical(JobSpec{Kind: KindContract,
		Kernels: []string{"bsaes-sbox", "chacha20-qr"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reordered.Kernels) != 2 || reordered.Kernels[0] != "chacha20-qr" {
		t.Fatalf("subset not in library order: %v", reordered.Kernels)
	}
	// Naming every kernel explicitly, in any order, is the same job as
	// naming none: one cache key.
	names := kernels.Names()
	slices.Reverse(names)
	kAll, _, err := Key(JobSpec{Kind: KindContract})
	if err != nil {
		t.Fatal(err)
	}
	kExplicit, _, err := Key(JobSpec{Kind: KindContract, Kernels: names})
	if err != nil {
		t.Fatal(err)
	}
	if kAll != kExplicit {
		t.Fatalf("reversed full kernel list keys to %.12s…, empty list to %.12s…", kExplicit, kAll)
	}
	if _, err := Canonical(JobSpec{Kind: KindContract, Kernels: []string{"des"}}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := Canonical(JobSpec{Kind: KindContract, Variants: []string{"huge-fa"}}); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if _, err := Canonical(JobSpec{Kind: KindContract, Masks: 1000}); err == nil {
		t.Fatal("out-of-range mask count accepted")
	}
}
