package core

import (
	"errors"
	"testing"

	"pandora/internal/pipeline"
)

func TestParseMachineSpec(t *testing.T) {
	cfg, err := ParseMachineSpec("silentstores,compsimp,packing,reuse-sv,vp:3,rfc-any,sq=5,rob=32,prf=48,alu=4,ld=1")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SilentStores == nil || cfg.SilentStores.Scheme != pipeline.SSReadPortStealing {
		t.Error("silentstores not configured")
	}
	if cfg.Simplifier == nil || !cfg.Simplifier.ZeroSkipMul {
		t.Error("compsimp not configured")
	}
	if cfg.Packer == nil || cfg.Reuse == nil || cfg.Predictor == nil {
		t.Error("packing/reuse/vp not configured")
	}
	if cfg.SQSize != 5 || cfg.ROBSize != 32 || cfg.PhysRegs != 48 || cfg.ALUPorts != 4 || cfg.LoadPorts != 1 {
		t.Errorf("sizing overrides not applied: %+v", cfg)
	}
}

func TestParseMachineSpecVariants(t *testing.T) {
	cfg, err := ParseMachineSpec("silentstores-lsq,vp-stride,strengthred")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SilentStores.Scheme != pipeline.SSLSQCompare {
		t.Error("lsq scheme not selected")
	}
	if cfg.Predictor == nil {
		t.Error("stride predictor not selected")
	}
	if cfg.Simplifier == nil || !cfg.Simplifier.StrengthReduction {
		t.Error("strength reduction not selected")
	}
}

func TestParseMachineSpecSpeculation(t *testing.T) {
	cfg, err := ParseMachineSpec("spec,stlf,staddr=4")
	if err != nil {
		t.Fatal(err)
	}
	sp := cfg.Speculation
	if sp == nil || !sp.WrongPath || !sp.Bimodal || !sp.StLF {
		t.Errorf("spec,stlf misconfigured: %+v", sp)
	}
	if cfg.StoreAddrLat != 4 {
		t.Errorf("StoreAddrLat = %d, want 4", cfg.StoreAddrLat)
	}

	cfg, err = ParseMachineSpec("wrongpath:12")
	if err != nil {
		t.Fatal(err)
	}
	if sp = cfg.Speculation; sp == nil || !sp.WrongPath || sp.Bimodal || sp.MaxWrongPath != 12 {
		t.Errorf("wrongpath:12 misconfigured: %+v", sp)
	}

	cfg, err = ParseMachineSpec("bimodal")
	if err != nil {
		t.Fatal(err)
	}
	if sp = cfg.Speculation; sp == nil || sp.WrongPath || !sp.Bimodal {
		t.Errorf("bimodal misconfigured: %+v", sp)
	}
}

func TestParseMachineSpecErrors(t *testing.T) {
	for _, spec := range []string{"bogus", "vp:x", "sq=0", "sq=-3", "staddr=1001", "staddr=20000"} {
		if _, err := ParseMachineSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
	if _, err := ParseMachineSpec("staddr=1000"); err != nil {
		t.Errorf("staddr at its bound rejected: %v", err)
	}
	if cfg, err := ParseMachineSpec("  "); err != nil || cfg.FetchWidth == 0 {
		t.Error("empty spec must yield the default baseline")
	}
}

// FuzzParseMachineSpec: ParseMachineSpec never panics, rejects only
// with a *SpecError, and every accepted spec keeps FormatMachineSpec's
// round-trip property — format, reparse, format again gives the same
// string.
func FuzzParseMachineSpec(f *testing.F) {
	for _, spec := range []string{
		"silentstores,compsimp,packing,reuse-sv,vp:3,rfc-any,sq=5,rob=32,prf=48,alu=4,ld=1",
		"silentstores-lsq,vp-stride,strengthred", "spec,stlf,staddr=4", "wrongpath:12",
		"bimodal", "bogus", "vp:x", "sq=0", "sq=-3", "  ",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseMachineSpec(spec)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("ParseMachineSpec(%q): untyped error %v", spec, err)
			}
			return
		}
		canon := FormatMachineSpec(cfg)
		again, err := ParseMachineSpec(canon)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", canon, spec, err)
		}
		if got := FormatMachineSpec(again); got != canon {
			t.Fatalf("round trip of %q: %q -> %q", spec, canon, got)
		}
	})
}
