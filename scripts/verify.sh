#!/bin/sh
# verify.sh — the repo's full pre-merge check: gofmt, vet, atomlint, build,
# tests, vet and unit tests of the nested bench module (so an exported
# API change cannot silently break the benchmark), a race-detector smoke of the concurrency-sensitive packages
# (the obs instruments are lock-free atomics; bgpstream caches counters;
# collector, routing and sanitize run inside the era pool), the fault-injection
# harness under -race, the incremental atom-maintenance differential
# (replay vs batch recompute, incl. faultgen-damaged churn) under -race
# plus a churn-bench smoke, the atomd daemon-vs-batch differential and
# shutdown-lifecycle tests under -race, a live-observability smoke
# (start atomrepro with -listen, scrape /metrics and /healthz mid-run,
# lint the exposition), a live-daemon smoke (boot cmd/atomd, TCP
# ingest, HTTP + binary queries, SIGTERM drain), a run of every program
# under examples/ (each must exit zero), coverage floors on the
# packages the fault model hardens plus the observability layer and the
# daemon, and short fuzz smokes of the wire codecs and the ingest frame
# protocol. Run via `make verify` or directly. Coverage profiles land
# in coverage/ (the CI artifact).
set -eu

cd "$(dirname "$0")/.."

# check_coverage <pkg-dir> <floor-percent>: run the package's tests with
# a coverage profile and fail if total statement coverage drops below
# the floor. Floors sit a few points under the measured value so routine
# churn passes but a hollowed-out test suite does not.
check_coverage() {
	pkg="$1"; floor="$2"
	name="$(basename "$pkg")"
	out="$(go test -coverprofile="coverage/$name.out" "./$pkg/" 2>&1)" || {
		echo "$out"; exit 1
	}
	pct="$(echo "$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p' | head -1)"
	if [ -z "$pct" ]; then
		echo "coverage: no percentage reported for $pkg"; exit 1
	fi
	ok="$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p >= f) ? 1 : 0 }')"
	if [ "$ok" != 1 ]; then
		echo "coverage: $pkg at $pct% is below the $floor% floor"
		exit 1
	fi
	echo "coverage: $pkg $pct% (floor $floor%)"
}

# require_listed <kind> <pattern> <pkg>...: fail unless every package
# lists a <kind> (Test, Fuzz or Benchmark) that <pattern> matches and
# every |-separated alternative names one somewhere. A -run, -fuzz or
# -bench pattern that matches nothing passes silently, so renaming a
# gated target must not turn its step into a no-op.
require_listed() {
	kind="$1"; pattern="$2"; shift 2
	all=""
	for pkg in "$@"; do
		list="$(go test -list "$pattern" "$pkg" 2>&1)" || { echo "$list"; exit 1; }
		found="$(echo "$list" | grep "^$kind" || true)"
		if [ -z "$found" ]; then
			echo "require_listed: '$pattern' selects no $kind in $pkg"
			exit 1
		fi
		all="$all
$found"
	done
	for alt in $(echo "$pattern" | tr '|' ' '); do
		if ! echo "$all" | grep -q "$alt"; then
			echo "require_listed: '$alt' in '$pattern' selects no $kind in $*"
			exit 1
		fi
	done
}

# race_run <pattern> <pkg>...: run the tests -run <pattern> selects in
# the packages under the race detector.
race_run() {
	pattern="$1"; shift
	require_listed Test "$pattern" "$@"
	go test -race -count=1 -run "$pattern" "$@"
}

# fuzz_run <target> <pkg>: fuzz one target for 5 seconds.
fuzz_run() {
	require_listed Fuzz "^$1\$" "$2"
	go test -fuzz "^$1\$" -fuzztime 5s -run '^$' "$2"
}

# bench_run <pattern> <benchtime> <pkg>...: run the benchmarks -bench
# <pattern> selects, with allocation reporting and no tests.
bench_run() {
	pattern="$1"; benchtime="$2"; shift 2
	require_listed Benchmark "$pattern" "$@"
	go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem "$@"
}

echo "== gofmt -l ."
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need gofmt -w:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== atomlint ./... (determinism, locks, lifecycle)"
lint_start="$(date +%s)"
go run ./cmd/atomlint ./...
lint_elapsed="$(( $(date +%s) - lint_start ))"
# Lint wall-time gate: with standard-library types read from export
# data, the sequential sweep (including go run's compile) takes seconds;
# a blowout means an analyzer regressed to superlinear work.
if [ "$lint_elapsed" -gt 120 ]; then
	echo "atomlint took ${lint_elapsed}s, over the 120s wall-time gate"
	exit 1
fi
echo "atomlint wall time: ${lint_elapsed}s (gate 120s)"

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== bench module (nested: the root ./... never compiles it) vet + unit tests"
(cd bench && go vet ./... && go test -count=1 -run 'TestLayer|TestAlloc|TestPercentile|TestTail|TestQuartiles|TestOps|TestBenchmarkJSON' ./...)

echo "== go test -race (smoke: internal/obs internal/bgpstream)"
go test -race -count=1 ./internal/obs/ ./internal/bgpstream/

echo "== go test -race (worker pool + striped intern table)"
go test -race -count=1 ./internal/parallel/ ./internal/aspath/

echo "== go test -race (collector + routing engine + sanitize, which run inside the era pool)"
go test -race -count=1 ./internal/collector/ ./internal/routing/ ./internal/sanitize/

echo "== go test -race (determinism at every worker count)"
race_run 'Determinism' ./internal/core/ ./internal/longitudinal/

echo "== go test -race (stream serve order, batch API, golden text across workers)"
race_run 'TestNextBatchServeOrder' ./internal/bgpstream/
race_run 'TestExperimentDeterministicAcrossWorkers' .

echo "== go test -race (fault-injection harness: absorb or contain, never silent)"
race_run 'TestHarness' ./internal/faultgen/harness/

echo "== go test -race (incremental atom maintenance: delta differential, incl. faultgen-damaged churn)"
go test -race -count=1 ./internal/replay/
race_run 'TestRunChurnReplayDifferential' ./internal/longitudinal/

echo "== go test -race (atomd: daemon-vs-batch differential, shutdown lifecycle, concurrent queries)"
race_run 'TestDaemon|TestShutdown|TestRestart|TestConcurrent|TestRepliesShareOneGeneration' ./internal/atomd/

echo "== live observability smoke (atomrepro -listen: scrape /metrics, /healthz, /runreport; promlint)"
go run scripts/obssmoke.go

echo "== live daemon smoke (cmd/atomd: TCP ingest, HTTP + binary queries, SIGTERM drain)"
go run scripts/atomdsmoke.go

echo "== examples smoke (go run ./examples/<name>: each must exit zero)"
for ex in examples/*/; do
	ex="${ex%/}"
	echo "-- $ex"
	go run "./$ex" > /dev/null
done

echo "== coverage floors (profiles in coverage/)"
mkdir -p coverage
check_coverage internal/bgpstream 90
check_coverage internal/sanitize 84
check_coverage internal/mrt 90
check_coverage internal/obs 85
check_coverage internal/lintkit 85
check_coverage internal/atomd 85

echo "== fuzz smoke (5s per wire codec + reader resync loop + stream memo)"
fuzz_run FuzzParseMessage ./internal/mrt/
fuzz_run FuzzReadRecord ./internal/mrt/
fuzz_run FuzzParseUpdate ./internal/bgp/
fuzz_run FuzzStreamDecode ./internal/bgpstream/
fuzz_run FuzzIngestFrame ./internal/atomd/

echo "== bench smoke (-benchtime=1x: bench code must compile and run)"
bench_run . 1x . ./internal/core/ ./internal/aspath/

echo "== sanitize bench smoke (CleanFeeds over one 2024Q1 snapshot at benchmark scale)"
bench_run 'BenchmarkCleanFeeds$' 1x ./internal/sanitize/

echo "== collector bench smoke (BuildRIBs and BuildFeeds over one 2024Q1 snapshot at benchmark scale)"
bench_run 'BuildRIBs|BuildFeeds' 1x ./internal/collector/

echo "== abnormal-peer window bench smoke (2024Q1 update window scoped to ADD-PATH peers)"
bench_run 'BenchmarkUpdateWarnings$' 1x ./internal/longitudinal/

echo "== decode bench smoke (record reader + stream decode)"
bench_run 'BenchmarkReader$' 1x ./internal/mrt/
bench_run 'BenchmarkStreamDecode$' 1x ./internal/bgpstream/

echo "== churn bench smoke (delta kernel: p99 + updates/s metrics must report)"
bench_run 'BenchmarkChurnReplay$' 100x .
bench_run 'BenchmarkApplyUpdate$' 100x ./internal/core/

echo "== daemon bench smoke (query hot path + TCP ingest throughput)"
bench_run 'BenchmarkAtomd' 1x ./internal/atomd/

echo "verify: OK"
