GO ?= go

.PHONY: build test lint bench bench-all verify fuzz-corpus golden-update atomd-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static analysis: the stdlib-only atomlint suite (cmd/atomlint) —
# determinism, hotpath, wiresafety, locks, aliasing, lifecycle.
lint:
	$(GO) run ./cmd/atomlint ./...

# The end-to-end benchmark (bench/, declared in BENCHMARK.json): every
# workload, one JSON result line each (see bench/README.md).
bench:
	bash bench/run.sh -workload all

# The full go-test benchmark sweep (one per table/figure; slow).
bench-all:
	$(GO) test -bench . -benchmem ./...

# Full pre-merge check: vet + atomlint + build + tests + race smokes
# (including the fault-injection harness) + live observability smoke +
# coverage floors + fuzz smokes. Coverage profiles land in coverage/.
verify:
	sh scripts/verify.sh

# Regenerate the checked-in fuzz seed corpora from faultgen-damaged
# archives (deterministic; see scripts/fuzzcorpus.go).
fuzz-corpus:
	$(GO) run scripts/fuzzcorpus.go

# Re-pin the golden end-to-end fixture (testdata/golden/).
golden-update:
	$(GO) test -run TestGolden -update .

# Operator-facing smoke of the streaming daemon: boot cmd/atomd over
# the golden RIBs, ingest the golden updates over TCP, query HTTP and
# the binary port live, SIGTERM, demand a clean drain.
atomd-smoke:
	$(GO) run scripts/atomdsmoke.go
