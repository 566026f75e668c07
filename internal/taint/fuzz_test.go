package taint_test

import (
	"errors"
	"math/rand"
	"testing"

	"pandora/internal/diffcheck"
	"pandora/internal/taint"
)

// verifySeed generates one random program with diffcheck's generator,
// declares a random sub-range of its scratch regions secret, and checks
// the no-under-tainting invariant: every byte of final architectural
// state that changes when the secret bytes are flipped must carry a
// label. Generated programs route loaded data through every ALU shape,
// all load/store widths, and data-dependent branches, so the invariant
// exercises the full propagation rule set including the sticky
// control-flow over-approximation.
func verifySeed(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	prog := diffcheck.Generate(rng)
	bases, span := diffcheck.ScratchRegions()
	base := bases[rng.Intn(len(bases))]
	n := uint64(8 * (1 + rng.Intn(7)))
	off := uint64(rng.Intn(int(span-n)/8)) * 8
	sec := taint.Secret{Name: "fuzz", Base: base + off, Len: n}
	return taint.VerifyPropagation(prog, diffcheck.InitMemory, []taint.Secret{sec}, taint.VerifyOptions{})
}

func FuzzTaint(f *testing.F) {
	for s := int64(1); s <= 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := verifySeed(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

// TestVerifyPropagationCorpus is the deterministic slice of FuzzTaint
// that always runs: 200 seeded programs with random secret regions.
func TestVerifyPropagationCorpus(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		if err := verifySeed(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzParseSecret feeds arbitrary text to the secret-region parser that
// `pandora scan -secret` and serve jobs reach. Every input either fails
// with a typed *taint.SecretError, or parses to a region that passes
// Check, renders back to itself, and labels at most MaxSecretLen bytes.
func FuzzParseSecret(f *testing.F) {
	for _, s := range []string{
		"0x1000:8", "0:65536", "0xfffffffffffffff0:16", "0x1000:8:key",
		"0x100:1:", "0:65537", "0:0xffffffffffff", "0xfffffffffffffff0:17",
		"0x1000:0", "0x1000", "zz:8", "0x1000:-1", "1:2:3:4", "::", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sec, err := taint.ParseSecret(s)
		if err != nil {
			var se *taint.SecretError
			if !errors.As(err, &se) {
				t.Fatalf("ParseSecret(%q) = %v (%T), want *SecretError", s, err, err)
			}
			if sec != (taint.Secret{}) {
				t.Fatalf("ParseSecret(%q) failed but returned %+v", s, sec)
			}
			return
		}
		if err := sec.Check(); err != nil {
			t.Fatalf("ParseSecret(%q) = %+v, which fails Check: %v", s, sec, err)
		}
		if again, err := taint.ParseSecret(sec.String()); err != nil || again != sec {
			t.Fatalf("%+v renders as %q, which parses to %+v, %v", sec, sec.String(), again, err)
		}
		st := taint.NewState()
		if _, err := st.DefineSecret(sec); err != nil {
			t.Fatalf("DefineSecret(%+v): %v", sec, err)
		}
		if n := st.Mem.Labeled(); uint64(n) != sec.Len || n > taint.MaxSecretLen {
			t.Fatalf("%q labeled %d bytes for a %d-byte region (limit %d)", s, n, sec.Len, taint.MaxSecretLen)
		}
	})
}
