GO ?= go

.PHONY: all build test verify race chaos crash mvcc soak net distperf certperf fuzz loc benchtest experiments clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the CI gate: gofmt-clean + no CHANGES.md line over 100
# characters and no entry over 10 lines (an entry is a line that does not
# start with a space, plus the indented lines under it) + the Comp-C oracle
# named by no non-test file outside internal/front (bench/ is its own
# module and may) + vet + build + the full test suite under the race
# detector (covering the sched runtime, the fault-injection chaos soak —
# see `make chaos` for the soak alone — and the CheckBatch worker pool).
verify:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l . prints:"; echo "$$out"; exit 1; }
	@out=$$(LC_ALL=C.UTF-8 grep -n '.\{101\}' CHANGES.md); test -z "$$out" || { echo "CHANGES.md lines over 100 characters:"; echo "$$out"; exit 1; }
	@out=$$(awk '/^[^ ]/ {if (n > 10) print at; at = NR; n = 0} {n++} END {if (n > 10) print at}' CHANGES.md); test -z "$$out" || { echo "CHANGES.md entries over 10 lines, starting at line:"; echo "$$out"; exit 1; }
	@out=$$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=bench CheckReference . | grep -v '^\./internal/front/'); test -z "$$out" || { echo "non-test files outside internal/front name CheckReference:"; echo "$$out"; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

# chaos runs only the race-enabled fault-injection soak on its fixed seed
# set: the TestChaos protocol x topology x fault-mix sweep, the escrow
# conservation invariant, and the deterministic per-site trigger cases.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestTrigger|TestSeededFaults|TestCompensation' ./internal/sched

# crash runs the durability suite under the race detector: WAL torn-tail
# and rotation cases (and the frame-scanner fuzz seeds), every
# deterministic crash site, recovery idempotence, deterministic replay, the
# crash-chaos conservation soak, the replay law on the journal seam's
# store-replay core with the parent-written format-freeze corpus, and the
# leaf-log parity of a runtime and a one-participant cluster (TestJournal,
# TestCorpus), the certifier seeded at recovery and by
# EnableCertify over a recorded history (TestRecoverCertifiedCrossedPairs,
# TestEnableCertify; the recovery allocation budget TestRecoverAllocBudget
# is logged only under -race), and the E11 crash matrix; then, without the
# race detector, 20 iterations of the scanner benchmark as a smoke
# (BenchmarkScanDir: B/op and allocs/op of one recovery-shaped log).
crash:
	$(GO) test -race -count=1 ./internal/wal
	$(GO) test -race -count=1 -run 'TestCrash|TestRecover|TestDeterministicReplay|TestEnableWAL|TestEnableCertify|TestJournal|TestCorpus' ./internal/sched
	$(GO) test -race -count=1 -run 'TestE11' ./internal/sim
	$(GO) test -run '^$$' -bench ScanDir -benchtime 20x ./internal/wal

# mvcc runs the multi-version data layer and optimistic-execution suite
# under the race detector: version-chain/clock/claim unit tests in
# internal/data, the sched validation suite (consistent committed prefix,
# read-your-writes, deterministic validation aborts, refresh, escrow
# netting, certified optimistic runs, seeded faults, crash recovery), and
# the E13 cells (every mode's execution correct, no certifier reject). The
# E12/E13/E16/E17 tests assert counted facts and log their wall-clock
# ratios (-v shows them); ratios are judged by bench/ alone.
mvcc:
	$(GO) test -race -count=1 ./internal/data
	$(GO) test -race -count=1 -run 'TestMVCC' ./internal/sched
	$(GO) test -count=1 -v -run 'TestE13' ./internal/sim

# race runs only the parallel-path packages under the race detector —
# quicker than verify when iterating on sched or front.
race:
	$(GO) test -race ./internal/sched ./internal/front .

# soak runs the bounded-memory checkpoint suite: the race-enabled
# checkpoint/recovery/backpressure tests in internal/sched (the delta
# suite of checkpoint_delta_test.go — the base ⊕ deltas recovery law,
# exact batch counts, retention, the failed-marker case — matches
# TestCheckpoint too), the MVCC compaction safety property, the
# dirty-set-vs-full-walk differential and the mark life cycle in
# internal/data, the WAL's failed-rotation retry, and the E14 gate (the
# checkpointed soak's recovery replay must stay bounded by the cadence
# while the unbounded baseline grows with the horizon, and the log keeps
# under 2x the store's items in ck-items since its last base).
soak:
	$(GO) test -race -count=1 -run 'TestCheckpoint|TestCrashDuringCheckpoint|TestOverload' ./internal/sched
	$(GO) test -race -count=1 -run 'TestCompact|TestDirtyMarks' ./internal/data
	$(GO) test -race -count=1 -run 'TestFailedRotation' ./internal/wal
	$(GO) test -count=1 -run 'TestE14' ./internal/sim

# net runs the distributed-commit suite under the race detector: the
# message layer (framing, both transports, fault-injector determinism,
# RPC deadline/retry), the coordinator/participant 2PC tests (all four
# protocols x both transports, sentinel errors through the RPC layer,
# crash windows + recovery, the duplicate/reorder idempotence seed
# sweep, and the lazy-commit protocol tests: a lost lazy record, the
# LSN-reuse schedule, the read-only vote, the counted cost, CheckEnded;
# a quarantined compensation on both front doors, participant stores
# compacted at each decision), and the E15 network-chaos atomicity gate.
net:
	$(GO) test -race -count=1 ./internal/comm
	$(GO) test -race -count=1 -run 'TestDist' ./internal/sched
	$(GO) test -race -count=1 -run 'TestE15' ./internal/sim

# distperf runs the group-commit suite: the E16 sustained
# distributed-throughput comparison at 64 concurrent clients on the
# channel transport, asserting the coalesced force path shares fsync
# windows and keeps conservation, and the WAL force/flush-daemon suite
# under the race detector — including the counted gather test (one
# forcer: a window per force; 64 forcers: at most a quarter as many
# windows as forces).
distperf:
	$(GO) test -race -count=1 -run 'TestForce|TestAbandon' ./internal/wal
	$(GO) test -count=1 -v -run 'TestE16' ./internal/sim

# certperf runs the certifier suite: the byte-identity property suite under
# the race detector, on one P (the schedule the benchmark measures) and
# on two (admission under the index mutex, engine parking included, must
# leave the engine byte-identical to the committed execution while a held
# root keeps every root unretired, on a conflicting and a disjoint-leaning
# mix, each also with a cut after every commit — the disjoint-leaning one
# parks stages whose delta nodes outlive the cut that drops them — plus
# rollback — rejections amid concurrent commits keep the engine — and
# WAL-ordering regressions), the crossed-pair reproduction at cadences
# 0, 1 and 64 and the always-keep oracle (TestRetireAgainstAlwaysKeep), the
# seeding law (TestSeedEqualsRetiredAdmit: front.Seed is admit-then-retire
# of every root, without the reduction), the certified
# deterministic replay (a cadence of cuts among concurrent commits: the
# live recorded system equals the recovered tail, which pins
# certification inside the checkpoint gate), the engine's parking tests
# (Admit that parks against Append that never does) and rollback law (a
# refused delta leaves no trace, on journaled and candidate engines,
# propagated inputs and retire folds included), the recycled commit
# path (the per-commit allocation budget, logged only under -race, and no
# state of a recycled attempt reaching the next root), stages journaled
# parents-first and the format-freeze corpus certified after recovery, and
# the E17 cells (8 clients on the 10%-conflict mix: no lost commit, no
# reject, the engine actually parking) with E12's counts (the engine
# agrees with a from-scratch Check on every prefix of 256 commits and
# rebuilds only on level changes). The race lines also pin the node IDs and
# semantic items the driver spells into a root's one ID buffer, across a
# wait-die retry, a local re-run and 100 later roots on the recycled
# attempt (TestSpelledIDs), and the certifier's screened local pairs to the
# plain pairwise test (TestLocalPairsMatchesPairwise). They hold Check to its
# frozen verdicts and Encode bytes (TestCheckGolden), stages to seq order
# (TestStagesParentsFirst checks every journaled batch; the certifier
# refuses a stage out of order) and the lock manager to its flat
# reference model (TestLockModel: release by held items, recycled entry
# lists); then, without the race detector, 20 iterations of the checker
# benchmark run as a smoke (BenchmarkCheckGeneral: B/op and allocs/op of
# one check-general system), 2000 of the disjoint lock benchmark
# (BenchmarkLockManagerDisjoint: an uncontended acquire and release,
# 0 allocs/op) and 2000 of the commit benchmark (BenchmarkCommitCommute:
# B/op and allocs/op of one warm commit-commute root).
certperf:
	$(GO) test -race -count=1 -cpu 1,2 -run 'TestCertify|TestRetire|TestSeedEqualsRetiredAdmit|TestPipeline|TestParking|TestIncremental|TestCheckpointPrefixExact|TestCheckpointAdmit|TestCheckGolden' ./internal/sched ./internal/front
	$(GO) test -race -count=1 -cpu 1,2 -run 'TestCommitAllocBudget|TestAttemptReuse|TestSpelledIDs|TestLocalPairs|TestStagesParentsFirst|TestCorpus|TestDeterministicReplay|TestLockModel' ./internal/sched
	$(GO) test -count=1 -v -run 'TestE12Incremental|TestE17' ./internal/sim
	$(GO) test -run '^$$' -bench CheckGeneral -benchtime 20x ./internal/front
	$(GO) test -run '^$$' -bench LockManagerDisjoint -benchmem -benchtime 2000x ./internal/sched
	$(GO) test -run '^$$' -bench CommitCommute -benchmem -benchtime 2000x ./internal/sched

# fuzz runs each fuzz target for 20 s beyond its checked-in seeds (the
# seeds alone run under `go test ./...`, so under `make verify` too): the
# WAL frame scanner, the model decoder, the message decoder and the
# topology codec.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzScanSegment -fuzztime 20s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzDecodeCheck -fuzztime 20s ./internal/model
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 20s ./internal/comm
	$(GO) test -run '^$$' -fuzz FuzzDecodeTopology -fuzztime 20s ./internal/sched

# loc prints the non-test Go lines per package and in total (bench/ is its
# own module and not counted) — the number CHANGES.md quotes when a PR
# claims lines removed — then the line counts of the three design docs
# and the byte size of CHANGES.md.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		printf '%6d %s\n' $$(cat $$(ls $$dir/*.go | grep -v _test.go) | wc -l) $$pkg; \
	done | awk '{print; n += $$1} END {printf "%6d total\n", n}'
	@wc -l DESIGN.md EXPERIMENTS.md README.md | awk '{printf "%6d %s lines\n", $$1, $$2}'
	@wc -c CHANGES.md | awk '{printf "%6d %s bytes\n", $$1, $$2}'

# benchtest vets and tests the repo benchmark (bench/ is its own module,
# so `go test ./...` at the root does not reach it). Every number the repo
# reports is produced there: see bench/README.md.
benchtest:
	cd bench && $(GO) vet . && $(GO) test .

# experiments regenerates every E1-E17 table on stdout.
experiments:
	$(GO) run ./cmd/compbench

clean:
	$(GO) clean ./...
