GO ?= go

.PHONY: build test race ci check check-quick scan fault fault-quick trace trace-quick serve serve-quick serve-chaos contract contract-quick statscheck clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

ci:
	./ci.sh

# Differential oracle: full sweep (512 programs, all 512 toggle masks
# including the speculation bits).
check: build
	$(GO) run ./cmd/pandora check

# Bounded variant used by CI, under the race detector.
check-quick: build
	$(GO) run -race ./cmd/pandora check -quick

# Leakage scanner: taint-based leak assertions (AES, eBPF, StLF,
# spec-vectorization, self-test), under the race detector.
scan: build
	$(GO) run -race ./cmd/pandora scan -quick

# Fault-injection campaign: full sweep (8 trials per site class).
fault: build
	$(GO) run ./cmd/pandora fault

# Bounded campaign used by CI, under the race detector.
fault-quick: build
	$(GO) run -race ./cmd/pandora fault -quick

# Cycle-accurate trace of the aes scenario, Chrome trace-event format
# (load TRACE_aes.json in Perfetto or chrome://tracing).
trace: build
	$(GO) run ./cmd/pandora trace -scenario aes -format chrome -o TRACE_aes.json

# Trace validation suite used by CI, under the race detector.
trace-quick: build
	$(GO) run -race ./cmd/pandora trace -quick

# Leakage-analysis-as-a-service: HTTP job API with the content-addressed
# result cache in .pandora-cache (Ctrl-C drains gracefully).
serve: build
	$(GO) run ./cmd/pandora serve

# Service self-test used by CI, under the race detector: job round-trips
# per type, cache hit byte-identity, tamper rejection.
serve-quick: build
	$(GO) run -race ./cmd/pandora serve -quick

# Chaos self-test used by CI, under the race detector: injected panics
# retried to success, deterministic failures cached, deadline
# enforcement, crash-recovery replay, journal tamper rejection, circuit
# shedding.
serve-chaos: build
	$(GO) run -race ./cmd/pandora serve -chaos-quick

# Leakage-contract enumeration: every crypto kernel × all 512
# optimization-toggle masks × every cache variant, regenerating the
# committed CONTRACT_table.json golden (byte-identical at any -parallel).
contract: build
	$(GO) run ./cmd/pandora contract -json -o CONTRACT_table.json
	git diff --stat CONTRACT_table.json

# Bounded gate used by CI, under the race detector: full kernel library
# over the rotating mask schedule, designed verdicts pinned, report
# byte-identical at 1 and 8 workers.
contract-quick: build
	$(GO) run -race ./cmd/pandora contract -quick

# Stats-encapsulation lint: no cross-package raw Stats writes.
statscheck:
	$(GO) run ./tools/statscheck -v internal cmd

clean:
	$(GO) clean ./...
