GO ?= go

.PHONY: all build test race vet cross lint lint-stats deps refs chaos fuzz-dlib fuzz-server fuzz-wire fuzz-render fuzz-field fuzz-integrate ci bench bench-module loc load load-relay relay soak live tools

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
# other GOARCH, so the non-amd64 side must build and vet too; store.Disk maps timestep files on linux only, so
# darwin and windows must build without it. Cross-compiling needs
# nothing from the network.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/grid ./internal/integrate ./internal/render ./internal/wire
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...

# Project-specific invariant analyzers (wallclock, lockdiscipline,
# hotpath, maporder) over the whole module, and the reachability pass:
# every exported func, method, type, const and var under internal/ is
# used by another package's non-test code (cmd/, examples/ and
# benchmark/ count), implements an interface, or is marked
# //vw:testonly. Fails on any finding not annotated with a //vw:allow
# directive, on malformed //vw: directives, and on classified packages
# (internal/analysis.PackageClasses) that lost their //vw:deterministic
# or //vw:wire opt-in.
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

# The server does not link the relay tier: relays and the load harness
# sit on top of it, never inside it. The renderer's tests do not link
# the server: the paper's figures are regenerated by cmd/vwbench. The
# server does not know store kinds: residency is decided behind
# store.Source, so its non-test code names no concrete store and no
# sampler of one. The round's work has one ledger, the governor's demand
# rows: the server's non-test code names no compute.Stats and calls no
# Units(), so the governor calibrates on, and grades fidelity in, the
# units it plans. Session state has one owner, the dlib.Session: the
# server's and the relay's non-test code declare no map[int64] (a table
# keyed by session id, pruned on disconnect, beside the record the
# session already carries in its State). Every procedure a dlib server answers is one the
# windtunnel calls: each Register names a wire.Proc constant, the origin
# and the relay register every constant, internal/client calls each one
# but wire.ProcFrameRelay (by Client.Call, or by the call function a
# redialing client hands its handshake), and the relay's upstream exchange
# (Relay.fetchRound) calls that one. A relay forwarding a call upstream
# is not a caller. What a session is sent is decided once: the origin
# and the relay answer through wire.Session's AnswerFrame and
# AnswerRelay, the only non-test callers of wire.AppendRelayFrameReply
# and (*wire.FrameEncoder).AppendFrame. A timestep file is mapped in
# one place, so a mapping has one release rule: syscall.Mmap and
# syscall.Munmap each have one non-test caller, in internal/store.
deps:
	@if $(GO) list -deps ./internal/server | grep -qx 'repro/internal/relay'; then \
		echo 'internal/server depends on internal/relay'; exit 1; fi
	@if $(GO) list -test -deps ./internal/render | grep -qx 'repro/internal/server'; then \
		echo 'internal/render tests depend on internal/server'; exit 1; fi
	@if grep -nE 'store\.(Memory|Ring|Disk)|UnsteadySampler' $$(ls internal/server/*.go | grep -v _test.go); then \
		echo 'internal/server names a store kind; residency belongs behind store.Source'; exit 1; fi
	@if grep -nE 'compute\.Stats|\.Units\(\)' $$(ls internal/server/*.go | grep -v _test.go); then \
		echo 'internal/server counts work outside the demand rows; the governor books planned units'; exit 1; fi
	@if grep -nE 'map\[int64\]' $$(ls internal/server/*.go internal/relay/*.go | grep -v _test.go); then \
		echo 'internal/server or internal/relay keys a table by session id; session state rides dlib.Session.State'; exit 1; fi
	@regs=$$(grep -nE '\bRegister\(' $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*') | \
		grep -vE 'func \(|\.Register\(wire\.Proc[A-Za-z0-9]+,'); \
	if [ -n "$$regs" ]; then echo "$$regs"; \
		echo 'dlib procedures registered under a name that is not a wire.Proc constant'; exit 1; fi
	@procs=$$(grep -hoE '^\s*(const\s+)?Proc[A-Za-z0-9]+\s*=' $$(ls internal/wire/*.go | grep -v _test.go) | grep -oE 'Proc[A-Za-z0-9]+'); \
	[ -n "$$procs" ] || { echo 'internal/wire declares no Proc constant'; exit 1; }; \
	fail=0; for p in $$procs; do \
		for pkg in server relay; do \
			grep -qE "\.Register\(wire\.$$p," $$(ls internal/$$pkg/*.go | grep -v _test.go) || \
				{ echo "wire.$$p is not registered in internal/$$pkg"; fail=1; }; \
		done; \
		if [ $$p = ProcFrameRelay ]; then \
			awk '/^func \(r \*Relay\) fetchRound\(/,/^}/' $$(ls internal/relay/*.go | grep -v _test.go) | grep -qE 'wire\.ProcFrameRelay\b' || \
				{ echo "wire.$$p is not called by internal/relay's upstream exchange (Relay.fetchRound)"; fail=1; }; \
		else \
			grep -qE "(\.Call|[^A-Za-z0-9_.]call)\(wire\.$$p\b" $$(ls internal/client/*.go | grep -v _test.go) || \
				{ echo "wire.$$p is not called from internal/client"; fail=1; }; \
		fi; \
	done; exit $$fail
	@fail=0; for f in AppendRelayFrameReply AppendFrame; do \
		calls=$$(grep -nE "[^A-Za-z0-9_]$$f\(" $$(find . -name '*.go' -not -name '*_test.go') | \
			grep -vE "^[^:]+:[0-9]+:\s*//|func (\([^)]*\) )?$$f\("); \
		if [ "$$(printf '%s\n' "$$calls" | grep -c .)" != 1 ] || ! printf '%s\n' "$$calls" | grep -q '^./internal/wire/serve.go:'; then \
			echo "$$calls"; echo "$$f has a non-test caller besides the serve rule (wire.Session's answers, internal/wire/serve.go)"; fail=1; fi; \
	done; exit $$fail
	@fail=0; for f in Mmap Munmap; do \
		calls=$$(grep -nE "syscall\.$$f\(" $$(find . -name '*.go' -not -name '*_test.go') | grep -vE '^[^:]+:[0-9]+:\s*//'); \
		if [ "$$(printf '%s\n' "$$calls" | grep -c .)" != 1 ] || ! printf '%s\n' "$$calls" | grep -q '^./internal/store/'; then \
			echo "$$calls"; echo "syscall.$$f needs exactly one non-test caller, in internal/store (store.Disk's mapping)"; fail=1; fi; \
	done; exit $$fail

# Doc citations resolve: every backticked TestX, BenchmarkX or FuzzX in
# README.md, DESIGN.md, EXPERIMENTS.md and the verify skill names a func
# declared in a _test.go file somewhere in the repository (benchmark/
# included), every backticked `make <target>` names a target of this
# Makefile, and every backticked file name ending in .go, .s, .json,
# .txt, .md, .sh or .jsonl is the path, or a path suffix, of a file in
# the checkout (`server/pool.go` resolves to internal/server/pool.go; a
# pattern such as `_test.go` is skipped). A * stands for any run of
# identifier characters, so `TestRelay*GoldenFrames` resolves; a name
# cited as since deleted goes without backticks.
refs:
	@defs=$$(grep -hoE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' $$(find . -name '*_test.go') | sed 's/^func //' | sort -u); \
	targets=$$(grep -oE '^[A-Za-z0-9_-]+:' Makefile | tr -d :); \
	files=$$(find . -type f -not -path './.git/*' | sed 's|^\./||'); \
	awk -v defs="$$defs" -v targets="$$targets" -v files="$$files" ' \
		function check(file,   s, pre, span, rest, line, tok, re, i, ok) { \
			s = text; line = 1; \
			while (match(s, /`[^`]*`/)) { \
				pre = substr(s, 1, RSTART - 1); line += gsub(/\n/, "", pre); \
				span = " " substr(s, RSTART + 1, RLENGTH - 2); s = substr(s, RSTART + RLENGTH); \
				rest = span; \
				while (match(rest, /[^A-Za-z0-9_](Test|Benchmark|Fuzz)[A-Z*][A-Za-z0-9_*]*/)) { \
					tok = substr(rest, RSTART + 1, RLENGTH - 1); rest = substr(rest, RSTART + RLENGTH); \
					re = tok; gsub(/\*/, "[A-Za-z0-9_]*", re); re = "^" re "$$"; ok = 0; \
					for (i = 1; i <= n; i++) if (d[i] ~ re) { ok = 1; break } \
					if (!ok) { print file ":" line ": `" tok "` names no test, benchmark or fuzz target"; bad = 1 } \
				} \
				rest = span; \
				while (match(rest, /[^A-Za-z0-9_-]make[ \t]+[A-Za-z0-9_-]+/)) { \
					tok = substr(rest, RSTART + 1, RLENGTH - 1); rest = substr(rest, RSTART + RLENGTH); \
					sub(/^make[ \t]+/, "", tok); \
					if (!(tok in target)) { print file ":" line ": `make " tok "` names no Makefile target"; bad = 1 } \
				} \
				rest = span " "; \
				while (match(rest, /[A-Za-z0-9_.\/-]+\.(go|s|json|txt|md|sh|jsonl)[^A-Za-z0-9_.\/-]/)) { \
					tok = substr(rest, RSTART, RLENGTH - 1); rest = substr(rest, RSTART + RLENGTH); \
					sub(/^(\.\.?\/)+/, "", tok); \
					if (tok ~ /(^|\/)_/) continue; \
					ok = 0; for (i = 1; i <= nf; i++) if (f[i] == tok || substr(f[i], length(f[i]) - length(tok)) == "/" tok) { ok = 1; break } \
					if (!ok) { print file ":" line ": `" tok "` names no file in the checkout"; bad = 1 } \
				} \
				line += gsub(/\n/, "", span); \
			} \
		} \
		BEGIN { n = split(defs, d, " "); m = split(targets, t, " "); for (i = 1; i <= m; i++) target[t[i]] = 1; nf = split(files, f, "\n") } \
		FNR == 1 && NR > 1 { check(prev); text = "" } \
		{ text = text $$0 "\n"; prev = FILENAME } \
		END { check(prev); exit bad }' README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md

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
ci: vet cross lint deps refs race relay live tools bench-module fuzz-dlib fuzz-server fuzz-wire fuzz-render fuzz-field fuzz-integrate load-relay

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
