GO ?= go

.PHONY: all build test race vet staticcheck bench

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the same commands as the CI race steps: the cluster's
# stress and failover tests repeat five times, since real-clock writers
# contend on the primary's applyMu directly; the sharding tests that
# migrate, split, scatter and cache repeat three times, since every
# routed op takes and releases a chunk-authority lease; and under the
# race detector internal/experiments alone runs for about 17 minutes,
# past go test's default 10-minute timeout, so it runs on its own.
race:
	$(GO) test -race $$($(GO) list ./internal/... | grep -v '/internal/experiments$$')
	$(GO) test -race -count=5 -run 'Stress|Failover' ./internal/cluster
	$(GO) test -race -count=3 -run 'Migrate|Scatter|Mongos|Split|Cache' ./internal/sharding
	$(GO) test -race -timeout 40m ./internal/experiments

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools when the binary is installed and
# degrades to a notice when it is not, so the target is safe in
# hermetic environments without module downloads.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# bench is the one reproducible performance command: perfbench's two
# YCSB workloads, each on the real clock over loopback TCP and in
# virtual time, for 10 s apiece. Every other performance claim is a
# blocking test under `make test` (allocation ceilings and
# virtual-time scaling ratios).
bench:
	bash perfbench/run.sh --workload ycsb_b --seconds 10
	bash perfbench/run.sh --workload ycsb_a --seconds 10
