GO ?= go

.PHONY: build test verify fmt-check lint lint-fix-check bench bench-smoke perfbench-smoke fuzz hunt hunt-smoke replay-smoke suite results-check serve serve-test clean

build:
	$(GO) build ./...

# Tier-1: what CI and the PR driver run.
test:
	$(GO) build ./... && $(GO) test ./...

# Full verify loop (see DESIGN.md "Verification loop"): gofmt + vet +
# rrlint + the whole test suite under the race detector. The exp suite,
# the differential harness and the rrserve stress wall all run work
# concurrently, so -race is load-bearing. serve-test is part of
# `go test ./...` already; listing it keeps the race-mode service wall
# explicit in the verify contract.
verify: fmt-check serve-test
	$(GO) vet ./... && $(GO) run ./cmd/rrlint && $(GO) test -race ./...

# Fails, listing the files, when any tracked .go file is not gofmt-clean.
fmt-check:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Project-specific static analysis (DESIGN.md "Static analysis layer"):
# determinism, cancellation, float-safety and ownership invariants. The
# zero-alloc invariant is pinned at runtime instead, by the alloc-budget
# tests (DESIGN.md §12). Exit 0 means a clean tree; exit 1 lists
# file:line diagnostics; exit 2 is a load error.
lint:
	$(GO) run ./cmd/rrlint

# Machine-readable lint pass for CI artifacts: same exit semantics as
# `lint`, but the findings (and the suppressed count) land in rrlint.json
# instead of the terminal.
lint-fix-check:
	$(GO) run ./cmd/rrlint -json > rrlint.json

# The rrserve test wall on its own: e2e endpoints, cache/pool semantics,
# and the 64-client byte-identical stress test, all under -race.
serve-test:
	$(GO) test -race ./internal/serve ./internal/par ./internal/stats

# Run the service locally.
serve:
	$(GO) run ./cmd/rrserve -addr :8080

# Differential fuzzing of the fast engine against the reference engine,
# fuzzing of the rrserve request surface (decoder + spec parser), fuzzing
# of the hunt shrinker's contract (validity + ratio window), of the trace
# decoder (totality + round trip, the NDJSON line parser for totality, the
# round trip through Encode and a strict encoding/json decode as oracle on
# every line it accepts, and the number scanner against strconv), of the gzip
# reader (FuzzGunzip: delivered bytes, verdict and error class against
# compress/gzip), and of the percentile selection behind metrics.Summarize
# and metrics.Percentile (FuzzPercentiles: bits against a sorted copy).
# FUZZTIME=5m make fuzz for longer campaigns.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzEngineAgreement -fuzztime=$(FUZZTIME) ./internal/check
	$(GO) test -fuzz=FuzzSimulateRequest -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -fuzz=FuzzShrinker -fuzztime=$(FUZZTIME) ./internal/hunt
	$(GO) test -fuzz=FuzzTraceDecode -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzNDJSONLine -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzScanNumber -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzGunzip -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzPercentiles -fuzztime=$(FUZZTIME) ./internal/metrics

# Adversarial ratio hunt (see DESIGN.md §14). `make hunt` runs the default
# championship cell; results are written to testdata/corpus only when you
# pass OUT/NAME explicitly via rrhunt flags.
hunt:
	$(GO) run ./cmd/rrhunt -k 2 -seed 1 -budget 2000 -v

# CI determinism gate: a fixed-seed, small-budget hunt must produce a
# byte-identical report across two runs, find an improvement over the
# analytic seeds, and keep the anomaly monitors silent (rrhunt exits 1 on
# any anomaly).
hunt-smoke:
	$(GO) build -o /tmp/rrhunt-smoke ./cmd/rrhunt
	/tmp/rrhunt-smoke -k 2 -seed 1 -budget 300 -maxjobs 36 -shrink-budget 120 > /tmp/rrhunt-smoke-1.txt
	/tmp/rrhunt-smoke -k 2 -seed 1 -budget 300 -maxjobs 36 -shrink-budget 120 > /tmp/rrhunt-smoke-2.txt
	cmp /tmp/rrhunt-smoke-1.txt /tmp/rrhunt-smoke-2.txt
	grep -q '^improved-over-seeds: true$$' /tmp/rrhunt-smoke-1.txt
	grep -q '^anomalies: 0$$' /tmp/rrhunt-smoke-1.txt
	rm -f /tmp/rrhunt-smoke /tmp/rrhunt-smoke-1.txt /tmp/rrhunt-smoke-2.txt

# Streaming replay determinism: replay the committed fixture twice through
# the JobSource path (every policy, file and stdin) and require
# byte-identical reports. fixture.csv holds the same 400 jobs, written by
# trace.Encode in CSV; its report must match the NDJSON one byte for byte,
# which checks the CSV number grammar end to end. fixture.ndjson.gz is the
# NDJSON fixture compressed by GNU gzip -9n, a second encoder's block
# layout for the gzip reader; replayed from the file (every policy) and
# through stdin (SRPT), it must report what the plain NDJSON does.
replay-smoke:
	$(GO) build -o /tmp/rrsim-smoke ./cmd/rrsim
	/tmp/rrsim-smoke -replay testdata/replay/fixture.ndjson -policy all -m 2 > /tmp/rrsim-replay-1.txt
	/tmp/rrsim-smoke -replay testdata/replay/fixture.ndjson -policy all -m 2 > /tmp/rrsim-replay-2.txt
	cmp /tmp/rrsim-replay-1.txt /tmp/rrsim-replay-2.txt
	/tmp/rrsim-smoke -replay testdata/replay/fixture.csv -format csv -policy all -m 2 > /tmp/rrsim-replay-csv.txt
	cmp /tmp/rrsim-replay-1.txt /tmp/rrsim-replay-csv.txt
	/tmp/rrsim-smoke -replay - -policy SRPT -m 2 < testdata/replay/fixture.ndjson > /tmp/rrsim-replay-stdin.txt
	grep -q '^SRPT' /tmp/rrsim-replay-stdin.txt
	/tmp/rrsim-smoke -replay testdata/replay/fixture.ndjson.gz -policy all -m 2 > /tmp/rrsim-replay-gz.txt
	cmp /tmp/rrsim-replay-1.txt /tmp/rrsim-replay-gz.txt
	/tmp/rrsim-smoke -replay - -policy SRPT -m 2 < testdata/replay/fixture.ndjson.gz > /tmp/rrsim-replay-gz-stdin.txt
	cmp /tmp/rrsim-replay-stdin.txt /tmp/rrsim-replay-gz-stdin.txt
	$(GO) build -o /tmp/rrtrace-smoke ./cmd/rrtrace
	/tmp/rrtrace-smoke convert -in testdata/replay/fixture.csv -o /tmp/rrtrace-fixture.ndjson
	cmp testdata/replay/fixture.ndjson /tmp/rrtrace-fixture.ndjson
	/tmp/rrtrace-smoke convert -in testdata/replay/fixture.ndjson -o /tmp/rrtrace-fixture.csv
	cmp testdata/replay/fixture.csv /tmp/rrtrace-fixture.csv
	rm -f /tmp/rrsim-smoke /tmp/rrsim-replay-1.txt /tmp/rrsim-replay-2.txt /tmp/rrsim-replay-csv.txt /tmp/rrsim-replay-stdin.txt /tmp/rrsim-replay-gz.txt /tmp/rrsim-replay-gz-stdin.txt
	rm -f /tmp/rrtrace-smoke /tmp/rrtrace-fixture.ndjson /tmp/rrtrace-fixture.csv

bench:
	$(GO) test -run xxx -bench . -benchmem .

# CI allocation + performance gate. No bound is an absolute time from one
# host: each timing gate is a ratio of times measured in the same run.
# - the alloc budgets: 0 allocs/run with a reused workspace for every
#   policy on the reference engine and every fast loop (RR and SRPT also at
#   m ∈ {1, 8}), with and without observers attached, and stated budgets
#   for the materializing observers (DESIGN.md §12 maps each row);
# - TestBenchSmokeRatchet: fast RR at n=1e6 ≥2x the reference per-epoch
#   engine on one identical machine, ≥1.5x on speeds {1, 3}, and ≥7.7x on
#   the seed instance (n=1e4), the ≥25%-faster-than-the-seed floor;
# - TestSegmentsChurn: Segment recording at n=1e5 churns ≥10x the observer
#   path's heap, whose runs allocate nothing;
# - TestRRTenMillionJobs: fast RR at n=1e7 within 1.6x its ns/job at n=1e5,
#   0 allocs per steady run, in a child process per m ∈ {1, 8};
# - TestStreamReplayRSS: a child process streaming 1e7 jobs peaks under
#   256 MiB RSS;
# - TestShardedSRPTSpeedup: machine-sharded SRPT ≥3x serial, armed only at
#   GOMAXPROCS ≥ 4;
# - internal/serve's TestCacheHitFaster: a cache hit ≥10x faster than a miss.
bench-smoke:
	$(GO) test -run 'TestEngineAllocBudget|TestObserverAllocBudget|TestStreamAllocBudget|TestBenchSmokeRatchet|TestSegmentsChurn|TestRRTenMillionJobs|TestStreamReplayRSS|TestShardedSRPTSpeedup' -v .
	$(GO) test -run 'TestCacheHitFaster' -v ./internal/serve

# The layer-ladder benchmark is a module of its own (perfbench/go.mod,
# replace rrnorm => ../), so `go test ./...` at the root never compiles it.
# Vet it, then run its tests: every workload's --smoke run in both modes
# with checked outputs. perfbench imports internal/fast, internal/trace and
# internal/serve, so a signature change there fails here instead of in the
# benchmark pipeline.
perfbench-smoke:
	$(GO) -C perfbench vet ./... && $(GO) -C perfbench test ./...

# Regenerate the experiment suite into results/.
suite:
	$(GO) run ./cmd/rrbench -out results -html results/report.html -parallel

# Regenerate the full suite into a temp dir and require every committed
# results/*.csv byte for byte; a CSV the suite no longer writes, or one it
# writes that results/ does not hold, fails too. About 3 min with
# -parallel on 2 vCPUs. The quick suite's tripwire is a tier-1 test
# (TestAllExperimentsRunQuick against internal/exp/testdata/quick_digests.txt).
results-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/rrbench -out "$$tmp" -parallel > "$$tmp/suite.log" 2>&1 || { tail -20 "$$tmp/suite.log"; exit 1; }; \
	fail=0; \
	for f in results/*.csv; do \
		b=$$(basename "$$f"); \
		if [ ! -f "$$tmp/$$b" ]; then echo "results-check: the suite no longer writes $$b"; fail=1; \
		elif ! cmp -s "$$f" "$$tmp/$$b"; then echo "results-check: $$b differs from the committed copy:"; diff "$$f" "$$tmp/$$b" | head -20; fail=1; fi; \
	done; \
	for f in "$$tmp"/*.csv; do \
		b=$$(basename "$$f"); \
		[ -f "results/$$b" ] || { echo "results-check: the suite writes $$b, which results/ does not hold"; fail=1; }; \
	done; \
	[ $$fail -eq 0 ] && echo "results-check: all $$(ls results/*.csv | wc -l) CSVs match"; \
	exit $$fail

clean:
	rm -rf results
