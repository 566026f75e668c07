GO ?= go

.PHONY: build test race ci check check-quick fault fault-quick trace serve contract statscheck clean

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
	$(GO) run -race ./cmd/pandora check -n 64 -masks 1

# Fault-injection campaign: full sweep (8 trials per site class).
fault: build
	$(GO) run ./cmd/pandora fault

# Bounded campaign used by CI, under the race detector.
fault-quick: build
	$(GO) run -race ./cmd/pandora fault -trials 4

# Cycle-accurate trace of the aes scenario, Chrome trace-event format
# (load TRACE_aes.json in Perfetto or chrome://tracing).
trace: build
	$(GO) run ./cmd/pandora trace -scenario aes -format chrome -o TRACE_aes.json

# Leakage-analysis-as-a-service: HTTP job API with the content-addressed
# result cache in .pandora-cache (Ctrl-C drains gracefully).
serve: build
	$(GO) run ./cmd/pandora serve

# Leakage-contract enumeration: every crypto kernel × all 512
# optimization-toggle masks × every cache variant, regenerating the
# committed CONTRACT_table.json golden (byte-identical at any -parallel).
contract: build
	$(GO) run ./cmd/pandora contract -json -o CONTRACT_table.json
	git diff --stat CONTRACT_table.json

# Stats-encapsulation lint: no cross-package raw Stats writes.
statscheck:
	$(GO) run ./tools/statscheck -v internal cmd

clean:
	$(GO) clean ./...
