GO ?= go

# Kernel micro-benchmarks whose before/after numbers are tracked in
# BENCH_PR1.json. The experiment benchmarks (BenchmarkTable*, BenchmarkFig*)
# are much slower and run via `make bench-all`.
KERNEL_BENCH = 'BenchmarkLoss(Naive|NegSampling|Rewritten)$$|BenchmarkLossRewrittenWorkers|BenchmarkHausdorffLoss|BenchmarkScoreSlab|BenchmarkMulBlocked|BenchmarkRank$$|BenchmarkSpectralInit|BenchmarkTrainEpoch|BenchmarkTopNScratch'

.PHONY: build test race vet bench bench-all check gradcheck fuzz golden-update \
	serve loadgen serve-bench serve-smoke resume-smoke crash-smoke bench-pr4 \
	quant-smoke bench-pr6 cluster-smoke bench-pr7 ab-smoke drift-smoke bench-pr9 \
	chaos-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the library packages, including the worker-count
# invariance tests and the Workers=8 short training run.
race:
	$(GO) test -race -count=1 ./internal/...

vet:
	$(GO) vet ./...

# Kernel benchmarks; raw output lands in bench_kernels.txt for updating
# BENCH_PR1.json by hand (the JSON also records machine context and the
# before-numbers, which a fresh run cannot reproduce).
bench:
	$(GO) test -run '^$$' -bench $(KERNEL_BENCH) -benchmem -benchtime=1x -count=1 . ./internal/core | tee bench_kernels.txt

bench-all:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime=1x -count=1 .

# The differential correctness harness (internal/check): every loss head, nn
# layer and gradient-trained baseline swept by the central-difference gradient
# checker, plus the golden-run trajectory comparisons.
gradcheck:
	$(GO) test -run 'Gradcheck|Gradients|Golden' -count=1 ./internal/check ./internal/core ./internal/nn ./internal/baselines

# Short coverage-guided exploration of each fuzz target (the seed corpora
# already run as plain tests in `make test`). Go allows one -fuzz target per
# invocation, hence the loop over package:target pairs.
FUZZTIME ?= 10s
FUZZ_TARGETS = ./internal/check:FuzzCOOInvariants ./internal/check:FuzzScoreSlabVsPredict \
	./internal/check:FuzzHausdorffSymmetry ./internal/serve:FuzzDecodeShipment
fuzz:
	for pt in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${pt#*:}$$" -fuzztime $(FUZZTIME) "$${pt%%:*}" || exit 1; \
	done

# Re-record the golden trajectories after an INTENDED change to training math.
golden-update:
	$(GO) test -run Golden -update -count=1 ./internal/check

# Online serving: train on a preset and expose the HTTP API.
SERVE_PRESET ?= gowalla
SERVE_ADDR ?= :8080
serve:
	$(GO) run ./cmd/tcss serve -preset $(SERVE_PRESET) -addr $(SERVE_ADDR)

# Load generator against a self-hosted in-process server (default) or -url.
LOADGEN_FLAGS ?=
loadgen:
	$(GO) run ./cmd/loadgen $(LOADGEN_FLAGS)

# The PR 3 serving benchmark: closed-loop load against a self-hosted gowalla
# server with a trickle of observe writes; results land in BENCH_PR3.json.
serve-bench:
	$(GO) run ./cmd/loadgen -preset gowalla -conns 8 -duration 10s \
		-observe-frac 0.001 -out BENCH_PR3.json

# Quick CI smoke: a short low-load run on the small preset, discarding output.
serve-smoke:
	$(GO) run ./cmd/loadgen -preset gmu-5k -epochs 40 -conns 2 -duration 2s \
		-observe-frac 0.01 -out /tmp/loadgen_smoke.json

# Checkpoint/resume end-to-end smoke: train straight through, train again
# but stop at the halfway checkpoint (simulating a kill), resume to the full
# epoch count, and demand the two saved models are byte-identical — the
# engine restores parameters, Adam moments, RNG position and epoch exactly.
RESUME_DIR ?= /tmp/tcss_resume_smoke
resume-smoke:
	rm -rf $(RESUME_DIR) && mkdir -p $(RESUME_DIR)
	$(GO) run ./cmd/tcss -preset gmu-5k -rank 4 -epochs 4 -save $(RESUME_DIR)/straight.json
	$(GO) run ./cmd/tcss -preset gmu-5k -rank 4 -epochs 2 -checkpoint $(RESUME_DIR)/ck.json
	$(GO) run ./cmd/tcss -preset gmu-5k -rank 4 -epochs 4 -resume $(RESUME_DIR)/ck.json -save $(RESUME_DIR)/resumed.json
	cmp $(RESUME_DIR)/straight.json $(RESUME_DIR)/resumed.json
	@echo "resume-smoke: resumed model byte-identical to straight-through run"

# Crash-recovery end-to-end smoke: train straight through, train again with
# an injected power loss 4096 bytes into the third checkpoint save (the
# process dies with exit 137 mid-write), resume from the surviving rotation
# ladder, and demand the resumed model is byte-identical to the
# uninterrupted run. Uses a built binary, not `go run`, so the injected exit
# code reaches the shell unmangled.
CRASH_DIR ?= /tmp/tcss_crash_smoke
crash-smoke:
	rm -rf $(CRASH_DIR) && mkdir -p $(CRASH_DIR)
	$(GO) build -o $(CRASH_DIR)/tcss ./cmd/tcss
	$(CRASH_DIR)/tcss -preset gmu-5k -rank 4 -epochs 4 -save $(CRASH_DIR)/straight.json
	$(CRASH_DIR)/tcss -preset gmu-5k -rank 4 -epochs 4 \
		-checkpoint $(CRASH_DIR)/ck.json -checkpoint-every 1 -checkpoint-keep 2 \
		-fault crash-save=3@4096; \
	status=$$?; test $$status -eq 137 \
		|| { echo "crash-smoke: want injected-crash exit 137, got $$status"; exit 1; }
	$(CRASH_DIR)/tcss -preset gmu-5k -rank 4 -epochs 4 \
		-resume $(CRASH_DIR)/ck.json -save $(CRASH_DIR)/resumed.json
	cmp $(CRASH_DIR)/straight.json $(CRASH_DIR)/resumed.json
	@echo "crash-smoke: resumed-after-crash model byte-identical to straight-through run"

# Compact-serving end-to-end smoke: train an int8-quantized model, save it in
# the v5 binary slab format, serve it via the zero-copy mmap loader, and
# drive a short closed-loop burst over HTTP. Exercises the whole compact
# pipeline: quantize -> v5 save -> mmap load -> int8 top-K scoring.
QUANT_DIR ?= /tmp/tcss_quant_smoke
QUANT_ADDR ?= 127.0.0.1:18093
quant-smoke:
	rm -rf $(QUANT_DIR) && mkdir -p $(QUANT_DIR)
	$(GO) build -o $(QUANT_DIR)/tcss ./cmd/tcss
	$(GO) build -o $(QUANT_DIR)/loadgen ./cmd/loadgen
	$(QUANT_DIR)/tcss -preset gmu-5k -rank 12 -epochs 40 -storage int8 \
		-save-binary $(QUANT_DIR)/model.bin
	$(QUANT_DIR)/tcss serve -preset gmu-5k -model $(QUANT_DIR)/model.bin -mmap \
		-addr $(QUANT_ADDR) & \
	pid=$$!; \
	up=0; for i in $$(seq 1 50); do \
		curl -fsS http://$(QUANT_ADDR)/healthz >/dev/null 2>&1 && { up=1; break; }; \
		sleep 0.2; \
	done; \
	test $$up -eq 1 || { echo "quant-smoke: server never became healthy"; kill $$pid; exit 1; }; \
	$(QUANT_DIR)/loadgen -url http://$(QUANT_ADDR) -users 220 -times 12 \
		-conns 4 -duration 2s -observe-frac 0 \
		-out $(QUANT_DIR)/quant_smoke.json; status=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	test $$status -eq 0 || { echo "quant-smoke: loadgen failed ($$status)"; exit 1; }
	@echo "quant-smoke: int8 model saved (v5), mmap-served, load OK"

# Multi-model serving end-to-end smoke: train the TCSS tensor model plus an
# STRNN sequential model in one process, serve with a 50/50 deterministic A/B
# user split and STRNN shadow scoring, and drive a mixed recommend + next-POI
# workload over HTTP. Loadgen exits nonzero unless both models served traffic
# and off-path shadow scorings completed with a sane agreement fraction. The
# report (per-model client p99s, per-model server metrics, shadow agreement)
# is the basis of BENCH_PR8.json.
AB_DIR ?= /tmp/tcss_ab_smoke
AB_ADDR ?= 127.0.0.1:18094
ab-smoke:
	rm -rf $(AB_DIR) && mkdir -p $(AB_DIR)
	$(GO) build -o $(AB_DIR)/tcss ./cmd/tcss
	$(GO) build -o $(AB_DIR)/loadgen ./cmd/loadgen
	$(AB_DIR)/tcss serve -preset gmu-5k -epochs 40 -rank 8 \
		-seq STRNN -seq-epochs 3 -seq-rank 8 -seq-save $(AB_DIR)/strnn.state \
		-ab STRNN=0.5 -shadow STRNN -addr $(AB_ADDR) & \
	pid=$$!; \
	up=0; for i in $$(seq 1 150); do \
		curl -fsS http://$(AB_ADDR)/healthz >/dev/null 2>&1 && { up=1; break; }; \
		sleep 0.2; \
	done; \
	test $$up -eq 1 || { echo "ab-smoke: server never became healthy"; kill $$pid; exit 1; }; \
	$(AB_DIR)/loadgen -url http://$(AB_ADDR) -users 220 -pois 200 -times 12 \
		-conns 4 -duration 3s -observe-frac 0 -next-frac 0.35 \
		-require-models tcss,STRNN -require-shadow \
		-out $(AB_DIR)/ab_smoke.json; status=$$?; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	test $$status -eq 0 || { echo "ab-smoke: loadgen failed ($$status)"; exit 1; }
	test -s $(AB_DIR)/strnn.state || { echo "ab-smoke: no saved STRNN state"; exit 1; }
	@echo "ab-smoke: A/B split + shadow served a mixed recommend/next workload, all checks passed"

# Open-world drift smoke: train and serve a growth-enabled node, generate a
# 2-week drift stream (new-user arrivals, POI openings, seasonally shifted
# check-ins) and feed it through /v1/observe with `tcss replay -url`, scoring
# each week's novel check-ins before folding them in. Fails unless every
# weekly batch applies (arrivals rejected = replay exits nonzero) and the
# /metrics growth counters show the model grew past its trained dimensions.
DRIFT_DIR ?= /tmp/tcss_drift_smoke
DRIFT_ADDR ?= 127.0.0.1:18095
drift-smoke:
	rm -rf $(DRIFT_DIR) && mkdir -p $(DRIFT_DIR)
	$(GO) build -o $(DRIFT_DIR)/tcss ./cmd/tcss
	$(DRIFT_DIR)/tcss serve -preset gmu-5k -epochs 40 -grow -half-life 64 \
		-addr $(DRIFT_ADDR) & \
	pid=$$!; \
	up=0; for i in $$(seq 1 150); do \
		curl -fsS http://$(DRIFT_ADDR)/healthz >/dev/null 2>&1 && { up=1; break; }; \
		sleep 0.2; \
	done; \
	test $$up -eq 1 || { echo "drift-smoke: server never became healthy"; kill $$pid; exit 1; }; \
	$(DRIFT_DIR)/tcss replay -preset gmu-5k -weeks 2 -url http://$(DRIFT_ADDR) \
		-out $(DRIFT_DIR)/drift_smoke.json; status=$$?; \
	curl -fsS http://$(DRIFT_ADDR)/metrics > $(DRIFT_DIR)/metrics.json 2>/dev/null; \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	test $$status -eq 0 || { echo "drift-smoke: replay failed ($$status)"; exit 1; }; \
	gu=$$(grep -o '"observe_grown_users": *[0-9]*' $(DRIFT_DIR)/metrics.json | grep -o '[0-9]*$$'); \
	gp=$$(grep -o '"observe_grown_pois": *[0-9]*' $(DRIFT_DIR)/metrics.json | grep -o '[0-9]*$$'); \
	{ test -n "$$gu" && test "$$gu" -gt 0 && test -n "$$gp" && test "$$gp" -gt 0; } \
		|| { echo "drift-smoke: model never grew (grown users=$$gu pois=$$gp)"; exit 1; }
	@echo "drift-smoke: 2-week drift stream grew the model through /v1/observe, replay OK"

# The PR 9 open-world benchmark: an 8-week drift replay on the small preset
# with warm growth-init vs the random-init ablation; the trajectory document
# lands in BENCH_PR9.json (cold-start NDCG@10 must favor warm).
bench-pr9:
	$(GO) run ./cmd/tcss replay -preset gmu-5k -weeks 8 -new-users 6 \
		-epochs 40 -online-epochs 2 -compare-random -out BENCH_PR9.json

# The PR 6 compact-serving benchmark: the TopNScratch kernel, then an
# HTTP-level closed-loop run with the response cache off at a rank where slab
# traffic dominates. BENCH_PR6.json keeps the numbers recorded by hand when
# this target also measured the since-removed request coalescing.
bench-pr6:
	$(GO) test -run '^$$' -bench 'BenchmarkTopNScratch' \
		-benchmem -benchtime=3x -count=1 ./internal/core
	$(GO) run ./cmd/loadgen -preset gowalla -rank 12 -conns 16 -duration 8s \
		-observe-frac 0 -no-cache -out /tmp/bench_pr6_base.json

# Cluster serving end-to-end smoke: spawn a 4-shard × 2-replica local
# cluster on a 1M-user deterministic synthetic model behind a tcssgw
# gateway, drive a verified closed-loop burst (every recommend response is
# recomputed locally and compared byte-for-byte), kill -9 one primary
# mid-burst, and require zero mismatches, at least one recorded failover,
# and a still-serving (degraded, not down) health rollup. Exits nonzero on
# any routing or replication mismatch. Scale down locally with e.g.
# CLUSTER_SMOKE_USERS=20000.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# Network chaos end-to-end smoke: spawn a real 2-shard × 1-replica cluster
# with a fault-injecting proxy on the gateway's link to one primary, drive a
# verified closed-loop burst through the gateway while the proxy walks a
# 503-burst → hang → heal schedule, and require zero response mismatches, at
# least one injected fault and failover, and a healthy rollup after heal.
# Exits nonzero if any 200 under chaos differs from the locally recomputed
# answer. Scale with e.g. CHAOS_SMOKE_DURATION=4s.
chaos-smoke:
	bash scripts/chaos_smoke.sh

# The PR 7 cluster-serving benchmark: the same 4×2 spawned cluster driven
# through the gateway with verification on; numbers recorded in
# BENCH_PR7.json by hand alongside the single-node PR 3/PR 6 baselines.
bench-pr7:
	CLUSTER_SMOKE_DURATION=10s CLUSTER_SMOKE_OUT=/tmp/bench_pr7_cluster.json \
		bash scripts/cluster_smoke.sh

# The PR 4 serving-freshness comparison (warm-start Observe vs retrain);
# numbers recorded in BENCH_PR4.json.
bench-pr4:
	$(GO) test -run '^$$' -bench 'BenchmarkObserve(WarmStart|Retrain)' \
		-benchmem -benchtime=3x -count=1 .

check: build vet test race gradcheck fuzz
