package core

import (
	"errors"
	"strings"
	"testing"
)

// TestMachineSpecRoundTrip: formatting a parsed spec is idempotent —
// FormatMachineSpec(Parse(canonical)) == canonical — and maps every
// accepted spelling onto one canonical form, which parses to the same
// configuration as the spelling did.
func TestMachineSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in, canonical string
	}{
		{"", ""},
		{"silentstores", "silentstores"},
		{"silentstores-lsq", "silentstores-lsq"},
		{"compsimp", "compsimp"},
		{"strengthred", "strengthred"},
		{"compsimp,strengthred", "compsimp,strengthred"},
		{"packing", "packing"},
		{"fusion", "fusion"},
		{"reuse-sv", "reuse-sv"},
		{"reuse-sn", "reuse-sn"},
		{"vp", "vp:2"},
		{"vp:8", "vp:8"},
		{"vp-stride", "vp-stride:2"},
		{"vp-stride:3", "vp-stride:3"},
		{"rfc-any", "rfc-any"},
		{"rfc-01", "rfc-01"},
		{"spec", "spec"},
		{"wrongpath", "wrongpath"},
		{"wrongpath:4", "wrongpath:4"},
		{"bimodal", "bimodal"},
		{"wrongpath,bimodal", "spec"},
		{"spec,wrongpath:4", "wrongpath:4,bimodal"},
		{"stlf", "stlf"},
		{"stlf,staddr=4", "stlf,staddr=4"},
		{"sq=4", "sq=4"},
		{"rob=16,prf=48", "rob=16,prf=48"},
		{"alu=1,ld=1", "alu=1,ld=1"},
		// Whitespace, ordering and redundant spellings collapse.
		{" vp:8 , silentstores ", "silentstores,vp:8"},
		{"stlf,compsimp,silentstores", "silentstores,compsimp,stlf"},
		{"strengthred,compsimp", "compsimp,strengthred"},
		{"stlf,wrongpath:3,bimodal", "wrongpath:3,bimodal,stlf"},
	}
	for _, tc := range cases {
		got, err := CanonicalMachineSpec(tc.in)
		if err != nil {
			t.Errorf("CanonicalMachineSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.canonical {
			t.Errorf("CanonicalMachineSpec(%q) = %q, want %q", tc.in, got, tc.canonical)
			continue
		}
		again, err := CanonicalMachineSpec(got)
		if err != nil {
			t.Errorf("re-canonicalize %q: %v", got, err)
			continue
		}
		if again != got {
			t.Errorf("not idempotent: %q -> %q -> %q", tc.in, got, again)
		}
		in, _ := ParseMachineSpec(tc.in)
		if canon, _ := ParseMachineSpec(got); in != canon {
			t.Errorf("%q and its canonical form %q parse to different configs:\n%+v\n%+v", tc.in, got, in, canon)
		}
	}
}

// TestSpecErrorFields: a rejected spec is a *SpecError naming the bad
// token, and its message carries the grammar.
func TestSpecErrorFields(t *testing.T) {
	_, err := CanonicalMachineSpec("silentstors")
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("want *SpecError, got %T: %v", err, err)
	}
	if se.Feature != "silentstors" || se.Reason != "unknown feature" || se.Arg != "" {
		t.Fatalf("unexpected fields: %+v", se)
	}
	if !strings.Contains(se.Error(), MachineFeatures()) {
		t.Fatalf("error does not carry the grammar: %v", se)
	}

	_, err = CanonicalMachineSpec("vp:zero")
	if !errors.As(err, &se) {
		t.Fatalf("want *SpecError, got %T: %v", err, err)
	}
	if se.Feature != "vp" || se.Arg != "zero" || se.Reason != "bad argument" {
		t.Fatalf("unexpected fields: %+v", se)
	}
}
