package core

import (
	"strconv"
	"strings"

	"pandora/internal/pipeline"
	"pandora/internal/uopt"
)

// ParseMachineSpec builds a pipeline configuration from a comma-separated
// feature list, for the CLI's `run` subcommand and for scripting
// experiments. Supported features:
//
//	silentstores        read-port-stealing silent stores
//	silentstores-lsq    LSQ-compare silent stores
//	compsimp            zero-skip mul + trivial ops + early-exit div
//	strengthred         strength reduction (mul/div by powers of two)
//	packing             operand packing (pipeline compression)
//	fusion              addi+load µ-op fusion (safe continuous optimization)
//	reuse-sv / reuse-sn computation reuse, value- or name-keyed
//	vp[:N]              last-value prediction (confidence threshold N)
//	vp-stride[:N]       stride value prediction
//	rfc-any / rfc-01    register-file compression variants
//	spec                wrong-path fetch + bimodal direction prediction
//	wrongpath[:N]       wrong-path fetch only (at most N wrong-path µops)
//	bimodal             bimodal direction predictor only
//	stlf                speculative store-to-load forwarding predictor
//	staddr=N            store address resolution latency (StLF window, N ≤ 1000)
//	sq=N, rob=N, prf=N, alu=N, ld=N  sizing overrides
//
// An empty spec returns the default baseline.
func ParseMachineSpec(spec string) (pipeline.Config, error) {
	cfg := pipeline.DefaultConfig()
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, raw := range strings.Split(spec, ",") {
		f := strings.TrimSpace(raw)
		if f == "" {
			continue
		}
		name, arg := f, ""
		if i := strings.IndexAny(f, ":="); i >= 0 {
			name, arg = f[:i], f[i+1:]
		}
		argN := func(def int) (int, error) {
			if arg == "" {
				return def, nil
			}
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return 0, &SpecError{Feature: name, Arg: arg, Reason: "bad argument"}
			}
			return n, nil
		}
		var err error
		switch name {
		case "silentstores":
			cfg.SilentStores = &pipeline.SilentStoreConfig{}
		case "silentstores-lsq":
			cfg.SilentStores = &pipeline.SilentStoreConfig{Scheme: pipeline.SSLSQCompare}
		case "compsimp":
			cfg.Simplifier = &uopt.Simplifier{ZeroSkipMul: true, TrivialALU: true, EarlyExitDiv: true}
		case "strengthred":
			if cfg.Simplifier == nil {
				cfg.Simplifier = &uopt.Simplifier{}
			}
			cfg.Simplifier.StrengthReduction = true
		case "packing":
			cfg.Packer = uopt.NewPacker()
		case "fusion":
			cfg.FuseAddiLoad = true
		case "reuse-sv":
			cfg.Reuse = uopt.NewReuseBuffer(uopt.SchemeSv, 64)
		case "reuse-sn":
			cfg.Reuse = uopt.NewReuseBuffer(uopt.SchemeSn, 64)
		case "vp":
			n, e := argN(2)
			if e != nil {
				return cfg, e
			}
			cfg.Predictor = uopt.NewPredictor(n)
		case "vp-stride":
			n, e := argN(2)
			if e != nil {
				return cfg, e
			}
			cfg.Predictor = uopt.NewStridePredictor(n)
		case "rfc-any":
			cfg.RFC = uopt.RFCAnyValue
		case "rfc-01":
			cfg.RFC = uopt.RFCZeroOne
		case "spec":
			speculation(&cfg).WrongPath = true
			speculation(&cfg).Bimodal = true
		case "wrongpath":
			n, e := argN(0)
			if e != nil {
				return cfg, e
			}
			speculation(&cfg).WrongPath = true
			speculation(&cfg).MaxWrongPath = n
		case "bimodal":
			speculation(&cfg).Bimodal = true
		case "stlf":
			speculation(&cfg).StLF = true
		case "staddr":
			cfg.StoreAddrLat, err = argN(cfg.StoreAddrLat)
			if err == nil && cfg.StoreAddrLat > pipeline.MaxStoreAddrLat {
				err = &SpecError{Feature: name, Arg: arg, Reason: "out of range (max " + strconv.Itoa(pipeline.MaxStoreAddrLat) + ")"}
			}
		case "sq":
			cfg.SQSize, err = argN(cfg.SQSize)
		case "rob":
			cfg.ROBSize, err = argN(cfg.ROBSize)
		case "prf":
			cfg.PhysRegs, err = argN(cfg.PhysRegs)
		case "alu":
			cfg.ALUPorts, err = argN(cfg.ALUPorts)
		case "ld":
			cfg.LoadPorts, err = argN(cfg.LoadPorts)
		default:
			return cfg, &SpecError{Feature: name, Reason: "unknown feature"}
		}
		if err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// MachineFeatures lists the spec grammar for CLI help.
func MachineFeatures() string {
	return "silentstores silentstores-lsq compsimp strengthred packing fusion reuse-sv reuse-sn " +
		"vp[:N] vp-stride[:N] rfc-any rfc-01 spec wrongpath[:N] bimodal stlf staddr=N sq=N rob=N prf=N alu=N ld=N"
}

// speculation returns cfg's speculation block, creating it on first use so
// the spec/wrongpath/bimodal/stlf features compose in any order.
func speculation(cfg *pipeline.Config) *pipeline.SpeculationConfig {
	if cfg.Speculation == nil {
		cfg.Speculation = &pipeline.SpeculationConfig{}
	}
	return cfg.Speculation
}
