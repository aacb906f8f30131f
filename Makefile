# Developer entry points; CI runs the same targets.

.PHONY: all vet build test race cover bench bench-smoke perf goldens

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

# Regenerates every committed golden after an intended output change: the
# experiment registry's testdata/<id>.csv and the EXPERIMENTS.md tables
# quoting them, the sim and cluster recordings, and schedsim's -sched all
# reports. Review the diff.
goldens:
	go test -count=1 ./internal/experiments ./internal/sim ./internal/cluster ./cmd/schedsim \
		-run 'TestRegistryGoldenAndWorkerInvariant|TestGoldenRecordings|TestSchedAllGolden' -update

# Mirrors the CI race job: internal packages carry the concurrent paths
# (core.Locked, obs counters, the serve dispatcher, sfc's shared curve
# tables) and the golden differential suite; the last two lines are the
# shutdown/ingress soak and the concurrent table-publishing soak.
race:
	go test -race ./internal/...
	go test -race -count=20 ./internal/serve ./internal/core -run 'Dispatcher|Locked|Sharded|Scrape'
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

# Every go-test benchmark with allocation columns.
bench:
	go test -run '^$$' -bench . -benchmem ./...

# One iteration of every benchmark: catches bit-rot without the cost.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...
