GO ?= go

.PHONY: all build test race vet cross lint lint-stats chaos fuzz-dlib fuzz-server fuzz-wire fuzz-render fuzz-field fuzz-integrate ci bench bench-module loc load load-relay relay soak live tools

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The portable build: internal/grid's Interp3x4, internal/render's
# display-list transform and internal/wire's codec-v2 point loops are
# SSE2 assembly on amd64 and Go loops over the scalar code on every
# other GOARCH, so the non-amd64 side must build and vet too;
# store.Disk maps timestep files on linux only, so darwin and windows
# must build without it. Cross-compiling needs nothing from the network.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/grid ./internal/integrate ./internal/render ./internal/wire
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...

# Project-specific invariant analyzers (wallclock, lockdiscipline,
# hotpath, maporder) over the whole module, the reachability pass
# (every exported name under internal/ has a product caller, implements
# an interface, or is marked //vw:testonly), and the structural rule
# table, internal/analysis.Rules: imports, forbidden uses, one-caller
# functions, dlib procedures, package classes and doc citations, each
# rule one row. Fails on any finding not annotated with a //vw:allow
# directive (no allow reaches a rule) and on malformed //vw: directives.
lint:
	$(GO) run ./cmd/vwlint ./...

# Suppression-debt report: the //vw:allow count per analyzer, every
# analyzer listed even at zero so trends diff cleanly across PRs, then
# the rule table's rows per kind (imports, forbid, onecaller, procs,
# class, docs).
lint-stats:
	$(GO) run ./cmd/vwlint -stats ./...

# Full suite under the race detector, chaos tests included.
race:
	$(GO) test -race ./...

# Just the fault-injection suites: deterministic scripted schedules in
# dlib/client plus the netsim fault layer and redial client, and the
# server's lock table (TestChaos*Lock: every lock under every fault).
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Redial|Resilien' ./...

# Short fuzz passes over dlib's bytes from outside: the call/reply
# framing and a client's read path against a lying server.
fuzz-dlib:
	$(GO) test -fuzz FuzzReadFrame -fuzztime 10s ./internal/dlib/
	$(GO) test -fuzz FuzzClientRead -fuzztime 10s ./internal/dlib/

# Short fuzz passes over the server frame/command surfaces with
# hostile numeric payloads, plus the live-steering command surface
# (NaN Reynolds, negative inlet velocity, absurd tapers) and the
# shared-tool command surface (NaN iso levels, out-of-range plane
# axes, unknown tool kinds). FuzzHandleFrame drives the round-advance
# rule both frame procedures share. The 10s budgets keep it ci-sized.
fuzz-server:
	$(GO) test -fuzz FuzzHandleFrame -fuzztime 10s ./internal/server/
	$(GO) test -fuzz FuzzApplyCommand -fuzztime 10s ./internal/server/
	$(GO) test -fuzz FuzzSteerCommand -fuzztime 10s ./internal/server/
	$(GO) test -fuzz FuzzToolCommand -fuzztime 10s ./internal/server/

# Short fuzz passes over every wire decoder. Codec v2: hostile counts,
# truncations, and ref-to-unknown records against a stateful decoder.
# Codec v1, differentially: the skim a relay hop runs and the full
# decode fail together or agree on everything but the points, and the
# full decode allocates in proportion to its input. The quantizer,
# differentially: raw float32 bits for a coordinate and its box, and a
# raw 16-bit value, through codec v2's arithmetic and the divide-and-
# math.Round reference, both directions; then 0-9 raw-bit points and a
# raw-bit box through PutQuantPoints and a decoder (the SSE2 lanes on
# amd64, every tail) against the same reference. Then the client update, both
# relay messages and the hello reply every workstation and relay
# decodes at connect: a count the bytes cannot back is refused before
# it sizes anything. The 10s budgets keep it ci-sized.
fuzz-wire:
	$(GO) test -fuzz FuzzDecodeFrameV2 -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz 'FuzzDecodeFrameReply$$' -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzQuantAgrees -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzQuantPointsAgrees -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzDecodeClientUpdate -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzDecodeRelayFrameRequest -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzDecodeRelayFrameReply -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzDecodeHelloReply -fuzztime 10s ./internal/wire/

# Short fuzz passes over the renderer: segments whose coordinates are raw
# float32 bit patterns, drawn immediately inside a row band and through
# RenderAnaglyph at one and two band workers; and, differentially, the
# same kind of draws for either eye, replace or additive, through the
# display list and immediately against a copy of the raster arithmetic
# that reads every byte it blends into; and the list's vertex
# transform, a raw-bit matrix, viewport and points through the amd64
# vector pass against the scalar loop, every field's bits.
fuzz-render:
	$(GO) test -fuzz FuzzLine -fuzztime 10s ./internal/render/
	$(GO) test -fuzz FuzzRasterAgrees -fuzztime 10s ./internal/render/
	$(GO) test -fuzz FuzzTransformAgrees -fuzztime 10s ./internal/render/

# Short fuzz pass over the timestep file reader: corrupt header fields,
# truncations and headers that announce terabytes, read as store.Disk
# reads a step (ReadFieldHeader, the file's length, ReadFieldPayload);
# the read must answer with an error or exactly the field the bytes
# hold, allocating in proportion to its input.
fuzz-field:
	$(GO) test -fuzz FuzzReadField -fuzztime 10s ./internal/field/

# Short fuzz pass over the integration kernel: raw float32 bit patterns
# for up to four seeds, the step and the times, every method, a few
# MaxSteps, steady and two-level sources with levels missing. A
# lock-step group must give each seed the Step path's line bit for bit
# and count one missing level per path stopped.
fuzz-integrate:
	$(GO) test -fuzz FuzzKernelAgrees -fuzztime 10s ./internal/integrate/

# The cluster-tier battery: the golden corpus through one and two relay
# hops (TestRelay*GoldenFrames), chaos (upstream loss, partition), the
# relay wire codec, the relay node's own suite, and vwload's relayed
# fleet runs.
relay:
	$(GO) test -race -count=1 -run 'Relay' ./internal/server/ ./internal/wire/ ./internal/relay/ ./cmd/vwload/

# The in-situ battery: the solver-vs-replay differential, the live
# golden corpus entries (direct and relayed), the lock table's steering
# row and the client's steering chaos, the ring's pin/eviction unit
# suite, and env's random-ops property test (steering among every
# lock), all under the race detector.
live:
	$(GO) test -race -count=1 -run 'Live|Steer|Ring|RandomOpsInvariants' ./internal/server/ ./internal/client/ ./internal/store/ ./internal/datasets/ ./internal/env/ ./internal/wire/

# The shared-tool battery: the golden corpus's tool entries (direct and
# relayed), cross-server determinism under a degrading governor, relay
# fan-out, the lock table's iso and plane rows, the FuzzToolCommand and
# FuzzDecodeFrameV2 tool seed corpora (seed corpora run as regular
# tests), the env/wire/field/isosurf unit suites, and env's random-ops
# property test (the tools among every lock).
tools:
	$(GO) test -race -count=1 -run 'Tool|Iso|Plane|Vortex|Extract|QCriterion|RandomOpsInvariants' ./internal/server/ ./internal/env/ ./internal/wire/ ./internal/field/ ./internal/isosurf/ ./internal/client/
	$(GO) test -race -count=1 -run xxx -fuzz FuzzToolCommand -fuzztime 5s ./internal/server/

# The gate a change must pass before merging.
ci: vet cross lint race relay live tools bench-module fuzz-dlib fuzz-server fuzz-wire fuzz-render fuzz-field fuzz-integrate load-relay

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
# quotes the same numbers: first the server, wire and relay packages
# together, then the whole module outside benchmark/.
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
