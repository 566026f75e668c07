package core

import (
	"fmt"
	"strconv"
	"strings"

	"pandora/internal/pipeline"
	"pandora/internal/uopt"
)

// SpecError is a rejected machine-spec token. It names exactly which
// feature (and argument, if any) was refused and why, and its Error
// string always carries the accepted grammar — so a failed `pandora run
// -machine` or a 400 from serve tells the caller what to type instead
// of just "bad spec".
type SpecError struct {
	// Feature is the feature token that was rejected (without any
	// argument), e.g. "vp" or "silentstors".
	Feature string
	// Arg is the offending argument, "" when the feature itself was
	// unknown.
	Arg string
	// Reason says what was wrong: "unknown feature", "bad argument" or
	// "out of range (max N)".
	Reason string
}

func (e *SpecError) Error() string {
	if e.Arg != "" {
		return fmt.Sprintf("core: machine feature %q: %s %q (accepted: %s)",
			e.Feature, e.Reason, e.Arg, MachineFeatures())
	}
	return fmt.Sprintf("core: machine feature %q: %s (accepted: %s)",
		e.Feature, e.Reason, MachineFeatures())
}

// FormatMachineSpec renders a pipeline configuration back into the
// ParseMachineSpec grammar, emitting only the features that differ from
// the default baseline, each in its one canonical spelling (thresholds
// always explicit: "vp:2", never bare "vp"). It is the round-tripping
// counterpart of ParseMachineSpec: for any spec the grammar accepts,
//
//	FormatMachineSpec(mustParse(s)) == FormatMachineSpec(mustParse(FormatMachineSpec(mustParse(s))))
//
// so two user spellings of the same machine ("vp,spec" vs
// " spec , vp:2 ") format identically — the property serve's cache
// keys rely on. Configuration fields outside the grammar (run
// attachments, the co-tenant, the cycle budget, checks) are ignored.
func FormatMachineSpec(cfg pipeline.Config) string {
	def := pipeline.DefaultConfig()
	var out []string
	add := func(f string) { out = append(out, f) }

	switch cfg.SilentStores.Scheme {
	case pipeline.SSReadPortStealing:
		add("silentstores")
	case pipeline.SSLSQCompare:
		add("silentstores-lsq")
	}
	if s := cfg.Simplifier; s.ZeroSkipMul && s.TrivialALU && s.EarlyExitDiv {
		add("compsimp")
	}
	if cfg.Simplifier.StrengthReduction {
		add("strengthred")
	}
	if cfg.Packing {
		add("packing")
	}
	if cfg.FuseAddiLoad {
		add("fusion")
	}
	switch cfg.Reuse {
	case uopt.SchemeSv:
		add("reuse-sv")
	case uopt.SchemeSn:
		add("reuse-sn")
	}
	switch vp := cfg.ValuePred; vp.Scheme {
	case uopt.VPLastValue:
		add("vp:" + strconv.Itoa(max(vp.Threshold, 1)))
	case uopt.VPStride:
		add("vp-stride:" + strconv.Itoa(max(vp.Threshold, 1)))
	}
	switch cfg.RFC {
	case uopt.RFCAnyValue:
		add("rfc-any")
	case uopt.RFCZeroOne:
		add("rfc-01")
	}
	if sp := cfg.Speculation; sp.WrongPath && sp.Bimodal && sp.MaxWrongPath == 0 {
		add("spec")
	} else {
		if sp.WrongPath {
			if sp.MaxWrongPath > 0 {
				add("wrongpath:" + strconv.Itoa(sp.MaxWrongPath))
			} else {
				add("wrongpath")
			}
		}
		if sp.Bimodal {
			add("bimodal")
		}
	}
	if cfg.Speculation.StLF {
		add("stlf")
	}
	if cfg.StoreAddrLat != def.StoreAddrLat {
		add("staddr=" + strconv.Itoa(cfg.StoreAddrLat))
	}
	if cfg.SQSize != def.SQSize {
		add("sq=" + strconv.Itoa(cfg.SQSize))
	}
	if cfg.ROBSize != def.ROBSize {
		add("rob=" + strconv.Itoa(cfg.ROBSize))
	}
	if cfg.PhysRegs != def.PhysRegs {
		add("prf=" + strconv.Itoa(cfg.PhysRegs))
	}
	if cfg.ALUPorts != def.ALUPorts {
		add("alu=" + strconv.Itoa(cfg.ALUPorts))
	}
	if cfg.LoadPorts != def.LoadPorts {
		add("ld=" + strconv.Itoa(cfg.LoadPorts))
	}
	return strings.Join(out, ",")
}

// CanonicalMachineSpec parses a user-written machine spec and returns
// its canonical spelling (the empty string for the default baseline).
// Serve's job canonicalization stores this form in cache keys, so
// equivalent spellings of the same machine share one cache entry; the
// CLI keeps showing the user's own spelling in its output.
func CanonicalMachineSpec(spec string) (string, error) {
	cfg, err := ParseMachineSpec(spec)
	if err != nil {
		return "", err
	}
	return FormatMachineSpec(cfg), nil
}
