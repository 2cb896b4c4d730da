GO ?= go

.PHONY: all build test race vet lint lint-stats deps chaos fuzz fuzz-server fuzz-wire fuzz-render fuzz-field fuzz-integrate ci bench bench-module loc load load-relay relay soak live tools

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific invariant analyzers (wallclock, lockdiscipline,
# hotpath, maporder, pinownership, codecparity, hostilecount) over
# the whole module. Fails on any finding not
# annotated with a //vw:allow directive, on malformed //vw: directives,
# and on classified packages (internal/analysis.PackageClasses) that
# lost their //vw:deterministic or //vw:wire opt-in. Also usable
# through vet:
#   go build -o vwlint ./cmd/vwlint && go vet -vettool=./vwlint ./...
# or as machine-readable output for CI diffing:
#   go run ./cmd/vwlint -json ./...
lint:
	$(GO) run ./cmd/vwlint ./...

# Suppression-debt report: the //vw:allow count per analyzer, every
# analyzer listed even at zero so trends diff cleanly across PRs.
lint-stats:
	$(GO) run ./cmd/vwlint -stats ./...

# Full suite under the race detector, chaos tests included.
race:
	$(GO) test -race ./...

# Just the fault-injection suites: deterministic scripted schedules in
# dlib/client/server plus the netsim fault layer and redial client.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Redial|Resilien' ./...

# Short fuzz passes over the wire framing and the client read path.
fuzz:
	$(GO) test -fuzz FuzzReadFrame -fuzztime 30s ./internal/dlib/
	$(GO) test -fuzz FuzzClientRead -fuzztime 30s ./internal/dlib/

# Short fuzz passes over the server frame/command surfaces with
# hostile numeric payloads, plus the live-steering command surface
# (NaN Reynolds, negative inlet velocity, absurd tapers) and the
# shared-tool command surface (NaN iso levels, out-of-range plane
# axes, unknown tool kinds).
fuzz-server:
	$(GO) test -fuzz FuzzHandleFrame -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzApplyCommand -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzSteerCommand -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzToolCommand -fuzztime 30s ./internal/server/

# Short fuzz passes over the frame decoders. Codec v2: hostile counts,
# truncations, and ref-to-unknown records against a stateful decoder.
# Codec v1, differentially: the skim a relay hop runs and the full
# decode fail together or agree on everything but the points, and the
# full decode allocates in proportion to its input. The quantizer,
# differentially: raw float32 bits for a coordinate and its box, and a
# raw 16-bit value, through codec v2's arithmetic and the divide-and-
# math.Round reference, both directions. The 10s budgets keep it
# ci-sized; run `make fuzz` for the longer framing passes.
fuzz-wire:
	$(GO) test -fuzz FuzzDecodeFrameV2 -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeFrameReply$$' -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzQuantAgrees -fuzztime 10s ./internal/wire/

# Short fuzz pass over the renderer: segments whose coordinates are raw
# float32 bit patterns, drawn immediately inside a row band and through
# RenderAnaglyph at one and two band workers.
fuzz-render:
	$(GO) test -fuzz FuzzLine -fuzztime 10s ./internal/render/

# Short fuzz pass over the timestep file reader: corrupt header fields,
# truncations and headers that announce terabytes; ReadField must
# answer with an error or exactly the field the bytes hold, allocating
# in proportion to its input.
fuzz-field:
	$(GO) test -fuzz FuzzReadField -fuzztime 10s ./internal/field/

# Short fuzz pass over the integration kernel: raw float32 bit patterns
# for up to four seeds, the step and the times, every method, a few
# MaxSteps, steady and two-level sources with levels missing. A
# lock-step group must give each seed the Step path's line bit for bit
# and count one missing level per path stopped.
fuzz-integrate:
	$(GO) test -fuzz FuzzKernelAgrees -fuzztime 10s ./internal/integrate/

# The cluster-tier battery: relay golden replays (one and two hops,
# both codecs), chaos (upstream loss, partition, cross-hop lock
# release), the relay wire codec, the relay node's own suite, and
# vwload's relayed fleet runs.
relay:
	$(GO) test -race -count=1 -run 'Relay' ./internal/server/ ./internal/wire/ ./internal/relay/ ./cmd/vwload/

# The server does not link the relay tier: relays and the load harness
# sit on top of it, never inside it. The renderer's tests do not link
# the server: the paper's figures are regenerated by cmd/vwbench.
deps:
	@if $(GO) list -deps ./internal/server | grep -qx 'repro/internal/relay'; then \
		echo 'internal/server depends on internal/relay'; exit 1; fi
	@if $(GO) list -test -deps ./internal/render | grep -qx 'repro/internal/server'; then \
		echo 'internal/render tests depend on internal/server'; exit 1; fi

# The in-situ battery: the solver-vs-replay differential, the live
# golden corpus entries, steering chaos on both ends of the wire, and
# the ring's pin/eviction unit suite, all under the race detector.
live:
	$(GO) test -race -count=1 -run 'Live|Steer|Ring' ./internal/server/ ./internal/client/ ./internal/store/ ./internal/datasets/ ./internal/env/ ./internal/wire/

# The shared-tool battery: golden corpus (both codecs), cross-server
# determinism under a degrading governor, relay replays and fan-out,
# the multi-user conflict chaos suite, the FuzzToolCommand and
# FuzzDecodeFrameV2 tool seed corpora (seed corpora run as regular
# tests), and the env/wire/field/isosurf unit suites.
tools:
	$(GO) test -race -count=1 -run 'Tool|Iso|Plane|Vortex|Extract|QCriterion' ./internal/server/ ./internal/env/ ./internal/wire/ ./internal/field/ ./internal/isosurf/ ./internal/client/
	$(GO) test -race -count=1 -run xxx -fuzz FuzzToolCommand -fuzztime 5s ./internal/server/

# The gate a change must pass before merging.
ci: vet lint deps race relay live tools bench-module fuzz-wire fuzz-render fuzz-field fuzz-integrate load-relay

bench:
	$(GO) test -bench . -benchmem ./...

# The nested benchmark/ module builds against this module's internal
# packages through a replace directive, so `go build ./...` here never
# sees it: vet and test it where it lives, or an internal API change
# breaks the benchmark unnoticed.
bench-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Non-blank, non-comment lines of non-test Go, so every simplicity PR
# quotes the same numbers: first the three packages the "one geometry
# pipeline" ROADMAP item counts, then the whole module outside
# benchmark/.
loc:
	@ls internal/server/*.go internal/wire/*.go internal/relay/*.go | grep -v _test | xargs cat | grep -vcE '^\s*(//|$$)'
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | grep -vcE '^\s*(//|$$)'

# Multi-workstation scale-out run: 64 simulated workstations at the
# paper's 10 frames/second against one server.
load:
	$(GO) run ./cmd/vwload -sessions 64 -frames 100 -fps 10

# Cluster-tier smoke: 256 workstations through 4 relay nodes. The
# origin should encode each round once, with per-tier amplification
# and the relay cache hit rate in the report.
load-relay:
	$(GO) run ./cmd/vwload -sessions 256 -frames 20 -fps 10 -relays 4

# Long soaks: 2000 rounds of the overloaded fleet against the
# frame-budget governor (compute-stage p99 and allocation stability),
# plus the in-situ overload soak — a live producer with a tight ring
# window under the same governed fleet, checking the planned-cost p99
# and the pin barrier. (Short versions of both ride `make test`.)
soak:
	$(GO) test ./internal/server/ -run 'TestSoakGovernedBudget|TestSoakLiveOverload' -soakframes 2000 -v
