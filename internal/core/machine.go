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
//	vp[:N]              last-value prediction (confidence threshold N ≤ 64)
//	vp-stride[:N]       stride value prediction (N ≤ 64)
//	rfc-any / rfc-01    register-file compression variants
//	spec                wrong-path fetch + bimodal direction prediction
//	wrongpath[:N]       wrong-path fetch only (at most N ≤ 1024 wrong-path µops)
//	bimodal             bimodal direction predictor only
//	stlf                speculative store-to-load forwarding predictor
//	staddr=N            store address resolution latency (StLF window, N ≤ 1000)
//	sq=N, rob=N, prf=N, alu=N, ld=N  sizing overrides (sq, rob ≤ 1024;
//	                    prf ≤ 4096; alu, ld ≤ 64)
//
// Features compose in any order. Of two tokens that set the same
// field, such as silentstores and silentstores-lsq, the last one wins.
// An empty spec returns the default baseline. An argument above its
// bound is a *SpecError "out of range (max N)": a served scan job takes
// its spec from the request, and the ROB's consumer masks grow with the
// square of its size.
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
		argN := func(def, max int) (int, error) {
			if arg == "" {
				return def, nil
			}
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return 0, &SpecError{Feature: name, Arg: arg, Reason: "bad argument"}
			}
			if n > max {
				return 0, &SpecError{Feature: name, Arg: arg, Reason: "out of range (max " + strconv.Itoa(max) + ")"}
			}
			return n, nil
		}
		var err error
		switch name {
		case "silentstores":
			cfg.SilentStores.Scheme = pipeline.SSReadPortStealing
		case "silentstores-lsq":
			cfg.SilentStores.Scheme = pipeline.SSLSQCompare
		case "compsimp":
			cfg.Simplifier.ZeroSkipMul = true
			cfg.Simplifier.TrivialALU = true
			cfg.Simplifier.EarlyExitDiv = true
		case "strengthred":
			cfg.Simplifier.StrengthReduction = true
		case "packing":
			cfg.Packing = true
		case "fusion":
			cfg.FuseAddiLoad = true
		case "reuse-sv":
			cfg.Reuse = uopt.SchemeSv
		case "reuse-sn":
			cfg.Reuse = uopt.SchemeSn
		case "vp", "vp-stride":
			n, e := argN(2, maxThreshold)
			if e != nil {
				return cfg, e
			}
			cfg.ValuePred = uopt.VPConfig{Scheme: uopt.VPLastValue, Threshold: n}
			if name == "vp-stride" {
				cfg.ValuePred.Scheme = uopt.VPStride
			}
		case "rfc-any":
			cfg.RFC = uopt.RFCAnyValue
		case "rfc-01":
			cfg.RFC = uopt.RFCZeroOne
		case "spec":
			cfg.Speculation.WrongPath = true
			cfg.Speculation.Bimodal = true
		case "wrongpath":
			n, e := argN(0, pipeline.MaxQueueSize)
			if e != nil {
				return cfg, e
			}
			cfg.Speculation.WrongPath = true
			cfg.Speculation.MaxWrongPath = n
		case "bimodal":
			cfg.Speculation.Bimodal = true
		case "stlf":
			cfg.Speculation.StLF = true
		case "staddr":
			cfg.StoreAddrLat, err = argN(cfg.StoreAddrLat, pipeline.MaxStoreAddrLat)
		case "sq":
			cfg.SQSize, err = argN(cfg.SQSize, pipeline.MaxQueueSize)
		case "rob":
			cfg.ROBSize, err = argN(cfg.ROBSize, pipeline.MaxQueueSize)
		case "prf":
			cfg.PhysRegs, err = argN(cfg.PhysRegs, pipeline.MaxPhysRegs)
		case "alu":
			cfg.ALUPorts, err = argN(cfg.ALUPorts, maxPorts)
		case "ld":
			cfg.LoadPorts, err = argN(cfg.LoadPorts, maxPorts)
		default:
			return cfg, &SpecError{Feature: name, Reason: "unknown feature"}
		}
		if err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// Bounds on the spec arguments that are not pipeline sizes: a
// value-predictor confidence threshold and a port count.
const (
	maxThreshold = 64
	maxPorts     = 64
)

// MachineFeatures lists the spec grammar for CLI help.
func MachineFeatures() string {
	return "silentstores silentstores-lsq compsimp strengthred packing fusion reuse-sv reuse-sn " +
		"vp[:N] vp-stride[:N] rfc-any rfc-01 spec wrongpath[:N] bimodal stlf staddr=N sq=N rob=N prf=N alu=N ld=N"
}
