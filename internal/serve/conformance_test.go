package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pandora/internal/core"
	"pandora/internal/kernels"
	"pandora/internal/obs"
)

// TestEveryScenarioReachableFromEveryFrontEnd is the registry
// conformance gate: every scenario in the core registry — built-ins and
// the self-registered crypto kernels alike — is accepted by both scan
// and trace job submission (Canonical), and the sweep corpus by trace
// only. The rejected direction must be an error, never a panic.
func TestEveryScenarioReachableFromEveryFrontEnd(t *testing.T) {
	all := core.Scenarios()
	if len(all) < 7+len(kernels.Kernels()) {
		t.Fatalf("registry has %d scenarios, want the 7 built-ins plus %d kernels", len(all), len(kernels.Kernels()))
	}
	for _, s := range all {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			if _, err := Canonical(JobSpec{Kind: KindScan, Scenario: s.Name}); err != nil {
				t.Errorf("scan job submission: %v", err)
			}
			if _, err := Canonical(JobSpec{Kind: KindTrace, Scenario: s.Name}); err != nil {
				t.Errorf("trace job submission: %v", err)
			}
		})
	}
	t.Run("sweep", func(t *testing.T) {
		if _, err := Canonical(JobSpec{Kind: KindTrace, Scenario: "sweep"}); err != nil {
			t.Errorf("trace job submission: %v", err)
		}
		if _, err := Canonical(JobSpec{Kind: KindScan, Scenario: "sweep"}); err == nil {
			t.Error("scan job submission accepted the trace-only corpus")
		}
		if _, err := core.ScanScenario(context.Background(), "sweep"); err == nil {
			t.Error("ScanScenario accepted the trace-only corpus")
		}
	})
}

// TestKernelScenariosRegistered: importing the serve package (which any
// front end does) is enough to make every kernel a registered scenario —
// the "registration stays open" acceptance criterion.
func TestKernelScenariosRegistered(t *testing.T) {
	for _, k := range kernels.Kernels() {
		if _, ok := core.ScenarioByName(k.Name); !ok {
			t.Errorf("kernel %q not in the scenario registry", k.Name)
		}
	}
}

// TestProbeNeverChangesScanSummary is the premise of tracing a scenario
// by attaching a probe to its scan run: for every registered scenario,
// the summary with a recording probe attached is JSON-equal to the one
// without.
func TestProbeNeverChangesScanSummary(t *testing.T) {
	for _, s := range core.Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			bare, err := s.Run(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			trace := obs.NewTrace()
			probed, err := s.Run(context.Background(), trace)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(bare)
			b, _ := json.Marshal(probed)
			if !bytes.Equal(a, b) {
				t.Errorf("summary changed under a probe:\nbare   %s\nprobed %s", a, b)
			}
			if trace.Len() == 0 {
				t.Error("probe recorded no events")
			}
		})
	}
}

// TestScenarioOutputsPinned pins, by SHA-256, each scenario's `pandora
// scan -json` body and `pandora trace -format jsonl` export as they
// were before tracing became the scan run with a probe attached. Both
// run through the serve job runners the CLI uses.
func TestScenarioOutputsPinned(t *testing.T) {
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	run := func(t *testing.T, spec JobSpec, workers int) *JobResult {
		t.Helper()
		canon, err := Canonical(spec)
		if err != nil {
			t.Fatal(err)
		}
		runner, _ := Runner(spec.Kind)
		res, err := runner.Run(context.Background(), canon, RunOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range []struct{ scenario, sha string }{
		{"aes", "786f8fd5686a9ff1fbd7c48ce3c8429de7c989802fe3e21d9749614a79745719"},
		{"aes-baseline", "3a2da9a9568fa790a706a7d402c95973e3da274439eafcd37d89cbdeb7d43043"},
		{"ebpf", "ce24f39268c64732170405df264a0eac797190318201def3d01a48884f286c78"},
		{"stlf", "7cebe1f614c8c9e1cd2d05ce47186d1415b283c8ef0d7961eb803397d3e8196d"},
		{"stlf-baseline", "800089c9565cc89a54e0c8ef111644440115e5fa9769a14ee16a06fa6a869631"},
		{"specvect", "13b9137b70b5ea7d88302720a724097e86213142717c075151bf5a8720dc1dcb"},
		{"specvect-baseline", "8ab5216b10673414c5f44ecd484d8d075039a8d675a0fbde9c6d0636c283623d"},
		{"chacha20-qr", "5a1d78f812946407944561a6fc57c73f35b2790cc95af4b49d99ccb02527c7fb"},
		{"poly1305-acc", "cb3c3086e3495368caac64dd9e02d510f2a68891003aabcacf093554e7b28a37"},
		{"bsaes-sbox", "cf8a3d648ff0b1905fb75f4791761ff8eba02293bb89e83f3b87c5559595b0b2"},
		{"aes-ttable", "b98488d9f402fe772558721b1726782295aa61aedbdfdf092dae601d32235867"},
		{"montladder-cswap", "8eab8b1e6b37ca941c037c857523427f23d96a8c585b54a084f0f232a867c8e8"},
	} {
		t.Run("scan/"+tc.scenario, func(t *testing.T) {
			res := run(t, JobSpec{Kind: KindScan, Scenario: tc.scenario}, 1)
			var body bytes.Buffer
			if err := json.Indent(&body, res.Output, "", "  "); err != nil {
				t.Fatal(err)
			}
			body.WriteByte('\n')
			if got := sum(body.Bytes()); got != tc.sha {
				t.Errorf("scan -json sha256 = %s, want %s", got, tc.sha)
			}
		})
	}
	for _, tc := range []struct {
		scenario string
		seed     int64
		sha      string
	}{
		{"aes", 0, "1233af9fa91c8db296a4ccfaeecb88d839871739647c27e0f6ce5092e40c0d70"},
		{"aes-baseline", 0, "393cb4ecbcb2a0e898478226fe95c3c8e6505696d424d2609174d0a3f27a7a03"},
		{"ebpf", 0, "c2933ba0d7e6267b7e5d4ad79df28a8579288cd4868ff75dfc765bcd9b38c011"},
		{"stlf", 0, "b75fd959d0d179c5ef516cc7c17202c1a82148334f4d42fa7b97b0921f9edf07"},
		{"specvect", 0, "f0879b1403702ec5fc405991de29664daab1f4afbb71075fbb549af5a3e05769"},
		{"chacha20-qr", 0, "f5ab5972b5e059d8051ae6f902ecaed0def0af5fc1514b96c5484edd8aa38b5f"},
		{"poly1305-acc", 0, "dc21d273c54df770bb0c428d2394b1cbf92b028a05f582fc826720dcaf43e4cf"},
		{"bsaes-sbox", 0, "63b295a9b95ccfb30fe33984ad0f2062368b0e7ab6ae3ec12a41888727cd9528"},
		{"aes-ttable", 0, "f464e18499d241333ff468a7589b4e91afd2c219b57dc97a52e2c54ff84b8d2a"},
		{"montladder-cswap", 0, "f7bfac2c194e9d3e8247d060763961009707f909a5912bc6f5ba426413e7d135"},
		{"sweep", 1, "a7de44ab9accb45522c2f58b1c6a564f867a8c14f78bbbcb6a77ba806680c9d4"},
		{"sweep", 2, "9b6a680c3b6e5d1354821845eaf8102945a0286a4575e76f34403db394f6f41f"},
	} {
		t.Run(fmt.Sprintf("trace/%s/seed%d", tc.scenario, tc.seed), func(t *testing.T) {
			res := run(t, JobSpec{Kind: KindTrace, Scenario: tc.scenario, Format: "jsonl", Seed: tc.seed}, 3)
			if got := sum([]byte(res.Export)); got != tc.sha {
				t.Errorf("trace -format jsonl sha256 = %s, want %s", got, tc.sha)
			}
		})
	}
}

// TestReportOutputsPinned pins, by SHA-256, the default `pandora fault
// -json` report (seed 1 and seed 7) and the default `pandora check`
// report, through the job runners the CLI uses. Both come from long
// cycle-by-cycle runs with many idle cycles (watchdog waits, cache
// misses), so any drift in how the cycle loop treats idle time shows
// here.
func TestReportOutputsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		sha  string
	}{
		{"fault/seed1", JobSpec{Kind: KindFault}, "ba8d1f662eb621b52b98417ddc24d8508883c8f3bb3469f36f83938aad83f2b0"},
		{"fault/seed7", JobSpec{Kind: KindFault, Seed: 7}, "875984067e2d784f5c092e16dba55237f4cf98ac3d020c15d3295ee799b4c986"},
		{"check/seed1", JobSpec{Kind: KindCheck}, "436ee00658b6614bce324066ed7b8ebb86c13f83fb516b526cda452bb3fdbc81"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			canon, err := Canonical(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			runner, _ := Runner(tc.spec.Kind)
			res, err := runner.Run(context.Background(), canon, RunOpts{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			// The CLI prints the fault report's JSON indented, and the
			// check report's text as is.
			body := []byte(res.Text)
			if tc.spec.Kind == KindFault {
				var buf bytes.Buffer
				if err := json.Indent(&buf, res.Output, "", "  "); err != nil {
					t.Fatal(err)
				}
				buf.WriteByte('\n')
				body = buf.Bytes()
			}
			h := sha256.Sum256(body)
			if got := hex.EncodeToString(h[:]); got != tc.sha {
				t.Errorf("sha256 = %s, want %s", got, tc.sha)
			}
		})
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
