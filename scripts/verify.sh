#!/bin/sh
# verify.sh — the repo's full pre-merge check: gofmt, vet, atomlint, build,
# tests, vet and unit tests of the nested bench module (so an exported
# API change cannot silently break the benchmark), a race-detector smoke of the concurrency-sensitive packages
# (the obs instruments are lock-free atomics; bgpstream caches counters;
# collector, routing and sanitize fan work out to the pool), the fault-injection
# harness under -race, the incremental atom-maintenance differential
# (replay vs batch recompute, incl. faultgen-damaged churn) under -race
# plus a churn-bench smoke, the atomd daemon-vs-batch differential and
# shutdown-lifecycle tests under -race, a live-observability smoke
# (start atomrepro with -listen, scrape /metrics and /healthz mid-run,
# lint the exposition), a live-daemon smoke (boot cmd/atomd, TCP
# ingest, HTTP + binary queries, SIGTERM drain), coverage floors on the
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

# race_run <pattern> <pkg>...: run the tests -run <pattern> selects in
# the packages under the race detector. A -run pattern that matches
# nothing passes silently, so first fail unless every package lists a
# test for it and every |-separated alternative names a test somewhere:
# renaming a gated test must not turn its step into a no-op.
race_run() {
	pattern="$1"; shift
	all=""
	for pkg in "$@"; do
		list="$(go test -list "$pattern" "$pkg" 2>&1)" || { echo "$list"; exit 1; }
		tests="$(echo "$list" | grep '^Test' || true)"
		if [ -z "$tests" ]; then
			echo "race_run: -run '$pattern' selects no test in $pkg"
			exit 1
		fi
		all="$all
$tests"
	done
	for alt in $(echo "$pattern" | tr '|' ' '); do
		if ! echo "$all" | grep -q "$alt"; then
			echo "race_run: '$alt' in -run '$pattern' selects no test in $*"
			exit 1
		fi
	done
	go test -race -count=1 -run "$pattern" "$@"
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

echo "== atomlint ./... (determinism, hotpath, wiresafety, locks, aliasing, lifecycle)"
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

echo "== go test -race (collector + routing engine + sanitize pool fan-out)"
go test -race -count=1 ./internal/collector/ ./internal/routing/ ./internal/sanitize/

echo "== go test -race (determinism at every worker count)"
race_run 'Determinism' ./internal/core/ ./internal/longitudinal/

echo "== go test -race (decode fan-out: merge order, batch API, golden text across workers)"
race_run 'TestStreamDeterministicAcrossWorkers|TestNextBatchMatchesNext' ./internal/bgpstream/
race_run 'TestExperimentDeterministicAcrossDecodeWorkers' .

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

echo "== coverage floors (profiles in coverage/)"
mkdir -p coverage
check_coverage internal/bgpstream 90
check_coverage internal/sanitize 84
check_coverage internal/mrt 90
check_coverage internal/obs 85
check_coverage internal/lintkit 85
check_coverage internal/atomd 85

echo "== fuzz smoke (5s per wire codec + reader resync loop)"
go test -fuzz FuzzParseMessage -fuzztime 5s -run '^$' ./internal/mrt/
go test -fuzz FuzzReadRecord -fuzztime 5s -run '^$' ./internal/mrt/
go test -fuzz FuzzParseUpdate -fuzztime 5s -run '^$' ./internal/bgp/
go test -fuzz FuzzIngestFrame -fuzztime 5s -run '^$' ./internal/atomd/

echo "== bench smoke (-benchtime=1x: bench code must compile and run)"
go test -run xxx -bench . -benchtime 1x -benchmem . ./internal/core/ ./internal/aspath/

echo "== sanitize bench smoke (CleanFeeds over one 2024Q1 snapshot at benchmark scale)"
go test -run xxx -bench 'BenchmarkCleanFeeds$' -benchtime 1x -benchmem ./internal/sanitize/

echo "== collector bench smoke (BuildRIBs and BuildFeeds over one 2024Q1 snapshot at benchmark scale)"
go test -run '^$' -bench 'BuildRIBs|BuildFeeds' -benchtime 1x ./internal/collector/

echo "== abnormal-peer window bench smoke (2024Q1 update window scoped to ADD-PATH peers)"
go test -run xxx -bench 'BenchmarkUpdateWarnings$' -benchtime 1x -benchmem ./internal/longitudinal/

echo "== decode bench smoke (zero-copy reader + stream fan-out)"
go test -run xxx -bench 'BenchmarkBytesReader$|BenchmarkReader$' -benchtime 1x -benchmem ./internal/mrt/
go test -run xxx -bench 'BenchmarkStreamDecode' -benchtime 1x -benchmem ./internal/bgpstream/

echo "== churn bench smoke (delta kernel: p99 + updates/s metrics must report)"
go test -run xxx -bench 'BenchmarkChurnReplay$' -benchtime 100x -benchmem .
go test -run xxx -bench 'BenchmarkApplyUpdate$' -benchtime 100x -benchmem ./internal/core/

echo "== daemon bench smoke (query hot path + TCP ingest throughput)"
go test -run xxx -bench 'BenchmarkAtomd' -benchtime 1x -benchmem ./internal/atomd/

echo "verify: OK"
