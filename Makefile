# bgpsim build and reproduction targets.

GO ?= go

.PHONY: all build test test-short vet check bench bench-all benchdiff bench-e2e paper paper-full verify examples cover clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# Tier-1+ verification: formatting, vet, the full suite under the race
# detector (covers the concurrent sweep runner), the fuzz seed corpora,
# per-package coverage floors, and a resilience-sweep smoke run.
check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race -p 1 -timeout 20m ./...
	$(GO) test -run 'Fuzz' ./internal/sim/ ./internal/topology/ ./internal/mpi/ ./internal/fault/ ./internal/fault/conformance/ ./internal/alloc/ ./internal/facility/ ./internal/obs/
	$(MAKE) cover
	@# Chaos smoke: the faults experiment (including the log=sender /
	@# restart=ckpt replay table) must print byte-identical output at
	@# any worker count and shard count.
	$(GO) run ./cmd/paper -exp faults -j 1 > /tmp/bgpsim-check-f1.txt
	$(GO) run ./cmd/paper -exp faults -j 4 -shards 4 > /tmp/bgpsim-check-f4.txt
	@cmp /tmp/bgpsim-check-f1.txt /tmp/bgpsim-check-f4.txt || \
		{ echo "check: paper -exp faults differs between -j 1 and -j 4 -shards 4"; exit 1; }
	@rm -f /tmp/bgpsim-check-f1.txt /tmp/bgpsim-check-f4.txt
	@# Trace smoke: the -events dump is fed from the probe stream and a
	@# sharded run merges it by the one merge rule, so it must print
	@# byte-identical output at any shard count — restart marks and an
	@# overflowing buffer included.
	$(GO) run ./cmd/bgpsim -ranks 64 -bench alltoall -bytes 2048 -fidelity analytic -events 5000 \
		-faults recover,log=sender,restart=ckpt,kill=3@2us -shards 1 > /tmp/bgpsim-check-ev1.txt
	$(GO) run ./cmd/bgpsim -ranks 64 -bench alltoall -bytes 2048 -fidelity analytic -events 5000 \
		-faults recover,log=sender,restart=ckpt,kill=3@2us -shards 4 > /tmp/bgpsim-check-ev4.txt
	@cmp /tmp/bgpsim-check-ev1.txt /tmp/bgpsim-check-ev4.txt || \
		{ echo "check: bgpsim -events differs between -shards 1 and -shards 4"; exit 1; }
	@rm -f /tmp/bgpsim-check-ev1.txt /tmp/bgpsim-check-ev4.txt
	$(GO) run ./cmd/paper -exp colltune > /dev/null
	$(GO) run ./cmd/paper -exp profile > /dev/null
	$(GO) run ./cmd/halo -gx 4 -gy 2 -profile -trace /tmp/bgpsim-check-trace.json > /dev/null
	@rm -f /tmp/bgpsim-check-trace.json
	@# Sharded determinism smoke: the parallel kernel must print byte-
	@# identical experiment output at any shard count.
	$(GO) run ./cmd/paper -exp profile -shards 1 > /tmp/bgpsim-check-s1.txt
	$(GO) run ./cmd/paper -exp profile -shards 4 > /tmp/bgpsim-check-s4.txt
	@cmp /tmp/bgpsim-check-s1.txt /tmp/bgpsim-check-s4.txt || \
		{ echo "check: paper -exp profile differs between -shards 1 and -shards 4"; exit 1; }
	@rm -f /tmp/bgpsim-check-s1.txt /tmp/bgpsim-check-s4.txt
	@# Single-run smoke: a single halo exchange runs as a session
	@# (Begin, then Finish) on the shard kernels and must print the same
	@# report and profile at any shard count N >= 1.
	$(GO) run ./cmd/halo -analytic -words 1000 -profile -shards 1 > /tmp/bgpsim-check-h1.txt
	$(GO) run ./cmd/halo -analytic -words 1000 -profile -shards 4 > /tmp/bgpsim-check-h4.txt
	@cmp /tmp/bgpsim-check-h1.txt /tmp/bgpsim-check-h4.txt || \
		{ echo "check: halo -profile differs between -shards 1 and -shards 4"; exit 1; }
	@rm -f /tmp/bgpsim-check-h1.txt /tmp/bgpsim-check-h4.txt
	@# Facility smoke: the multi-job facility loop (many concurrent
	@# partition-scoped simulations + a rack blast across jobs) must
	@# print byte-identical output at any worker and shard count.
	$(GO) run ./cmd/paper -exp facility -j 1 > /tmp/bgpsim-check-fac1.txt
	$(GO) run ./cmd/paper -exp facility -j 4 -shards 4 > /tmp/bgpsim-check-fac4.txt
	@cmp /tmp/bgpsim-check-fac1.txt /tmp/bgpsim-check-fac4.txt || \
		{ echo "check: paper -exp facility differs between -j 1 and -j 4 -shards 4"; exit 1; }
	@rm -f /tmp/bgpsim-check-fac1.txt /tmp/bgpsim-check-fac4.txt
	@# Calibration smoke: the fit and the CRN variability sweeps must
	@# print byte-identical output at any worker and shard count — the
	@# common-random-numbers guarantee the CI tables are built on.
	$(GO) run ./cmd/paper -exp calib -j 1 > /tmp/bgpsim-check-cal1.txt
	$(GO) run ./cmd/paper -exp calib -j 4 -shards 4 > /tmp/bgpsim-check-cal4.txt
	@cmp /tmp/bgpsim-check-cal1.txt /tmp/bgpsim-check-cal4.txt || \
		{ echo "check: paper -exp calib differs between -j 1 and -j 4 -shards 4"; exit 1; }
	@rm -f /tmp/bgpsim-check-cal1.txt /tmp/bgpsim-check-cal4.txt
	@# Server smoke: bgpsimd submits one job twice over real HTTP and
	@# must answer miss then hit with byte-identical result documents,
	@# then drain cleanly (exit 0).
	$(GO) run ./cmd/bgpsimd -smoke
	@# Daemon smoke: the real binary on a random port — POST the same
	@# job twice (second must be a byte-identical cache hit), SIGTERM,
	@# and require the graceful drain to exit 0.
	$(GO) build -o /tmp/bgpsim-check-bgpsimd ./cmd/bgpsimd
	@rm -f /tmp/bgpsim-check-bgpsimd.addr
	@/tmp/bgpsim-check-bgpsimd -addr 127.0.0.1:0 -addr-file /tmp/bgpsim-check-bgpsimd.addr 2>/dev/null & \
	pid=$$!; \
	for i in $$(seq 1 50); do [ -s /tmp/bgpsim-check-bgpsimd.addr ] && break; sleep 0.1; done; \
	addr=$$(cat /tmp/bgpsim-check-bgpsimd.addr); \
	job='{"kind":"bench","bench":"allreduce","ranks":64,"trace":true}'; \
	curl -sf -D /tmp/bgpsim-check-h1 -o /tmp/bgpsim-check-b1 -X POST "http://$$addr/v1/jobs" -d "$$job" || { echo "check: bgpsimd first submit failed"; kill $$pid; exit 1; }; \
	curl -sf -D /tmp/bgpsim-check-h2 -o /tmp/bgpsim-check-b2 -X POST "http://$$addr/v1/jobs" -d "$$job" || { echo "check: bgpsimd second submit failed"; kill $$pid; exit 1; }; \
	grep -qi "^X-Bgpsimd-Cache: hit" /tmp/bgpsim-check-h2 || { echo "check: bgpsimd resubmission was not a cache hit"; kill $$pid; exit 1; }; \
	cmp -s /tmp/bgpsim-check-b1 /tmp/bgpsim-check-b2 || { echo "check: bgpsimd cache hit body differs from miss body"; kill $$pid; exit 1; }; \
	cjob='{"kind":"calib"}'; \
	curl -sf -o /tmp/bgpsim-check-c1 -X POST "http://$$addr/v1/jobs" -d "$$cjob" || { echo "check: bgpsimd calib submit failed"; kill $$pid; exit 1; }; \
	curl -sf -D /tmp/bgpsim-check-ch2 -o /tmp/bgpsim-check-c2 -X POST "http://$$addr/v1/jobs" -d "$$cjob" || { echo "check: bgpsimd calib resubmit failed"; kill $$pid; exit 1; }; \
	grep -qi "^X-Bgpsimd-Cache: hit" /tmp/bgpsim-check-ch2 || { echo "check: bgpsimd calib resubmission was not a cache hit"; kill $$pid; exit 1; }; \
	cmp -s /tmp/bgpsim-check-c1 /tmp/bgpsim-check-c2 || { echo "check: bgpsimd calib cache hit body differs from miss body"; kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid || { echo "check: bgpsimd drain did not exit 0"; exit 1; }
	@rm -f /tmp/bgpsim-check-bgpsimd /tmp/bgpsim-check-bgpsimd.addr /tmp/bgpsim-check-h1 /tmp/bgpsim-check-h2 /tmp/bgpsim-check-b1 /tmp/bgpsim-check-b2 /tmp/bgpsim-check-c1 /tmp/bgpsim-check-c2 /tmp/bgpsim-check-ch2

# Kernel hot-path benchmarks. BENCH_kernel.json (test2json stream, one
# object per line) records the perf trajectory so future PRs can diff
# ns/op, allocs/op, and events/s against this one.
bench:
	$(GO) test -run '^$$' -bench BenchmarkKernel -benchmem -count=1 -json ./internal/sim/ > BENCH_kernel.json
	@grep -oE '"Output":"Benchmark[^"]*\\t"' BENCH_kernel.json | sed 's/"Output":"//;s/\\t"$$//'
	@grep -oE '"Output":"[^"]*ns/op[^"]*"' BENCH_kernel.json | sed 's/"Output":"//;s/\\n"$$//;s/\\t/  /g'

# The full benchmark suite (paper tables, ablations, compute kernels).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Paired kernel gate. The parent is HEAD when the working tree differs
# from it, else HEAD^. Its internal/sim test binary is built from `git
# archive`, the change's from the working tree, both under the ignored
# .bench_build/benchdiff and with -trimpath, so the same code builds the
# same binary wherever its checkout lies. Five rounds run the kernel
# benchmarks on both sides from one directory, alternating which side
# runs first, and cmd/benchpair reads the rounds as pairs: it fails
# when KernelAllreduce512, KernelBcast512 or KernelSharded/shards=1 is
# missing from a round or its median paired ns/op ratio exceeds 1.10.
# BENCH_kernel.json (make bench) stays the trajectory record.
benchdiff:
	@set -e; d=$$(pwd)/.bench_build/benchdiff; \
	if [ -n "$$(git status --porcelain)" ]; then parent=HEAD; else parent=HEAD^; fi; \
	echo "benchdiff: parent $$(git rev-parse --short $$parent), change the working tree"; \
	rm -rf $$d; mkdir -p $$d/parent; \
	git archive $$parent | tar -x -C $$d/parent; \
	(cd $$d/parent && $(GO) test -trimpath -c -o $$d/parent.test ./internal/sim/); \
	$(GO) test -trimpath -c -o $$d/change.test ./internal/sim/; \
	cd internal/sim && for r in 1 2 3 4 5; do \
		if [ $$((r % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi; \
		for s in $$order; do \
			echo "benchdiff: round $$r, $$s"; \
			$$d/$$s.test -test.run '^$$' -test.bench BenchmarkKernel -test.benchmem -test.count 1 > $$d/round$$r-$$s.txt; \
		done; \
	done; \
	cd ../..; \
	$(GO) run ./cmd/benchpair -kernel $$d

# End-to-end ledger: run the repository benchmark (perfbench, see
# BENCHMARK.json) on every workload at seeds 1-3, 30 s each, and append
# each result line, with the date, host, commit and Go version, to
# BENCH_e2e.json (one JSON object per line). A commit ending in
# "-dirty" ran with uncommitted changes on top.
bench-e2e:
	@commit=$$(git rev-parse --short HEAD); \
	git diff --quiet HEAD -- . ':!BENCH_e2e.json' || commit=$$commit-dirty; \
	host="$$(nproc)-core $$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1), $$(awk '/^MemTotal/ {printf "%.0f GB", $$2 / 1048576}' /proc/meminfo)"; \
	gover=$$($(GO) env GOVERSION); \
	for w in sweep-contention intrepid-sharded server-mixed; do \
		for s in 1 2 3; do \
			out=$$(bash perfbench/run.sh --workload $$w --seed $$s --seconds 30 --trace 0) || exit 1; \
			line=$$(printf '%s\n' "$$out" | tail -n 1); \
			printf '{"date":"%s","host":"%s","go":"%s","commit":"%s","workload":"%s","seed":%d,"seconds":30,"result":%s}\n' \
				"$$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$$host" "$$gover" "$$commit" $$w $$s "$$line" >> BENCH_e2e.json; \
			echo "bench-e2e: $$w seed $$s: $$line"; \
		done; \
	done

# Regenerate every paper table/figure at reduced scale into results/.
paper:
	$(GO) run ./cmd/paper -exp all -out results/reduced

# The paper's actual process counts (minutes of wall time).
paper-full:
	$(GO) run ./cmd/paper -exp all -full -out results/full

# Check the paper's claims against the simulation.
verify:
	$(GO) run ./cmd/paper -verify

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/halo-mapping
	$(GO) run ./examples/power-study
	$(GO) run ./examples/custom-app
	$(GO) run ./examples/real-programs

# Coverage with per-package floors: the packages the resilience and
# observability contracts lean on (fault injection, the MPI layer, the
# probes) must not silently lose their tests. Floors sit ~5 points
# below measured coverage; raise them as the suites grow.
COVER_FLOORS = bgpsim/internal/fault:86 bgpsim/internal/mpi:83 bgpsim/internal/obs:65 bgpsim/internal/trace:93 bgpsim/internal/alloc:89 bgpsim/internal/facility:85 bgpsim/internal/jobspec:70 bgpsim/internal/server:70 bgpsim/internal/calib:80 bgpsim/internal/stats:80

cover:
	@$(GO) test -cover ./... | awk -v floors="$(COVER_FLOORS)" ' \
		{ print } \
		/^ok/ { for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) pct[$$2] = substr($$i, 1, length($$i)-1) + 0 } \
		END { \
			n = split(floors, fl, " "); bad = 0; \
			for (j = 1; j <= n; j++) { \
				split(fl[j], kv, ":"); \
				if (!(kv[1] in pct)) { printf "cover: no coverage reported for %s\n", kv[1]; bad = 1 } \
				else if (pct[kv[1]] < kv[2] + 0) { printf "cover: %s at %.1f%% is below the %s%% floor\n", kv[1], pct[kv[1]], kv[2]; bad = 1 } \
			} \
			exit bad }'

clean:
	rm -f test_output.txt bench_output.txt
