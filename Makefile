# Developer entry points; CI runs the same targets.

.PHONY: all vet build test synctest nofma race cover bench bench-smoke perf goldens loc

all: vet build test

# Statement-coverage floor over ./internal/...: the measured total
# (93.4%) rounded down to a multiple of 0.5. Raise it when coverage rises;
# never lower it to merge.
COVER_FLOOR := 93.0

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

# The live dispatcher against sim.Run on a virtual clock
# (internal/serve/synctest_test.go): every policy must calibrate exact,
# under the race detector. The test needs the synctest experiment, which
# plain go test and go vet leave off, so it is vetted here too.
synctest:
	GOEXPERIMENT=synctest go vet ./internal/serve
	GOEXPERIMENT=synctest go test -race -count=1 -run TestLive ./internal/serve

# Fails on any fused multiply-add in ./internal/...'s code for the four
# architectures that have one. A fused op rounds once where a product and
# an add round twice, so it would break "identical numbers on any
# platform". The Go spec lets the compiler fuse x*y + z unless the product
# is converted explicitly, as in float64(x*y) + z. Offline: the installed
# toolchain cross-compiles. The regexp is every fused mnemonic the four
# assemblers print.
FUSED := \b(FMADD|FMSUB|FNMADD|FNMSUB|FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADDS|WFMADB|WFMSDB|FMA|FMAD|FMSD|FNMSD|FNMAD)\b
nofma:
	@status=0; for arch in arm64 ppc64le s390x riscv64; do \
		out=$$(GOARCH=$$arch go build -gcflags=-S ./internal/... 2>&1) || { echo "$$out" | tail -20; exit 1; }; \
		if echo "$$out" | grep -aE '$(FUSED)'; then echo "fused multiply-add on $$arch" >&2; status=1; fi; \
	done; exit $$status

# Regenerates every committed golden after an intended output change: the
# experiment registry's testdata/<id>.csv and the EXPERIMENTS.md tables
# quoting them, the sim engine's per-case outputs and the sim and cluster
# recordings, every baseline's dispatch order, schedsim's -sched all
# reports and observer streams, and sfcviz's renderings. Review the diff.
goldens:
	go test -count=1 ./internal/experiments ./internal/sim ./internal/cluster ./internal/sched ./cmd/schedsim ./cmd/sfcviz \
		-run 'TestRegistryGoldenAndWorkerInvariant|TestEngineMatchesLegacy|TestGoldenRecordings|TestDispatchOrderGolden|TestSchedAllGolden|TestObserverStreamsGolden|TestOutputGolden' -update

# The CI race job runs this target: internal packages carry the concurrent paths
# (core.Locked, obs counters, the serve dispatcher, sfc's shared curve
# tables) and the engine golden; the last two lines are the
# shutdown/ingress soak and the concurrent table-publishing soak.
race:
	go test -race ./internal/...
	go test -race -count=20 ./internal/serve ./internal/core ./internal/obs -run 'Dispatcher|Locked|Sharded|Scrape'
	go test -race -count=20 ./internal/sfc -run TestAccelerateConcurrently

# Mirrors the CI coverage job: fail when total statement coverage over the
# internal packages drops below the floor.
cover:
	go test -coverprofile=cover.out ./internal/...
	@total=$$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t + 0 < f + 0) { printf "coverage %.1f%% is below the %.1f%% floor\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, f }'

# The repository's benchmark (bench/README.md): five workloads, end-to-end
# metrics and the per-layer ledger, written to bench/out/. This is the
# performance record; the go-test benches below are for working on a layer.
perf:
	go run ./bench

# Every go-test benchmark with allocation columns, the kernel benches
# among them: BenchmarkDispatcherAddNext (internal/core),
# BenchmarkHilbertIndexFast and BenchmarkIndexFast (internal/sfc).
bench:
	go test -run '^$$' -bench . -benchmem ./...

# One iteration of every benchmark: catches bit-rot without the cost.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

# The line counts a simplification cites: Go lines under internal/, cmd/
# and examples/ outside tests that are neither blank nor a // comment,
# then every line of the test files there.
loc:
	@find internal cmd examples -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | \
		awk '{ sub(/^[ \t]+/, "") } $$0 != "" && !/^\/\// { n++ } END { printf "code  %d\n", n }'
	@find internal cmd examples -name '*_test.go' -print0 | xargs -0 cat | awk 'END { printf "tests %d\n", NR }'
