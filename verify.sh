#!/bin/sh
# verify.sh — the repo's verification recipe (see ROADMAP.md).
#
#   ./verify.sh          # tier-1: build + lint + full test suite
#   ./verify.sh lint     # lint only: gofmt -l, go vet, topovet, and
#                        #   staticcheck when installed
#   ./verify.sh full     # tier-1 + the -race pass over the parallel
#                        #   runner, simulator, oracle and chaos injector,
#                        #   plus the topomapd serving layer and its
#                        #   chaos/soak harness (internal/serve/...),
#                        #   the simulator's array-pool tests under
#                        #   -race -count=10, the benchmark harness's
#                        #   own tests (bench/, a separate module),
#                        #   a 10s fuzz smoke of the language front end,
#                        #   a -check=sampled smoke of one Table 2
#                        #   kernel per commercial machine,
#                        #   and the topomapd lifecycle smoke (below)
#   ./verify.sh topomapd # topomapd lifecycle smoke only: boot on an
#                        #   ephemeral port, serve one mapping, survive an
#                        #   overload burst answering only JSON envelopes,
#                        #   then drain cleanly on SIGTERM with exit 0
#                        #   (in-process leak/bounded-memory assertions
#                        #   live in internal/serve/chaostest)
#
# Tier-1 includes TestStreamingMatchesMaterialized (the equivalence gate
# between the streaming and materialized trace paths, now run under
# CheckFull), TestOracleEquivalence (the differential oracle agreeing with
# the production simulator on every Table 2 kernel x Table 1 machine), the
# fault-isolation suite (panic containment, cancellation, budgets,
# checkpoint/resume), the chaos suite (every injected fault class
# detected, healthy cells byte-identical) in internal/experiments, and the
# lint gate below — notably cmd/topovet, the repo's own analyzer suite
# (DESIGN.md "Static invariants"), which must report zero unsuppressed
# findings over the whole tree.
set -e

lint() {
	# gofmt: no unformatted files anywhere, analyzer fixtures included.
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt: unformatted files:" >&2
		echo "$unformatted" >&2
		exit 1
	fi
	go vet ./...
	# topovet: determinism, memo-key completeness, context threading,
	# fault containment, scratch-buffer escape.
	go run ./cmd/topovet ./...
	# staticcheck is optional locally; CI pins and runs it always.
	if command -v staticcheck >/dev/null 2>&1; then
		staticcheck ./...
	fi
}

topomapd_smoke() {
	smoketmp=$(mktemp -d)
	go build -o "$smoketmp/topomapd" ./cmd/topomapd
	"$smoketmp/topomapd" -listen 127.0.0.1:0 -queue 8 -workers 2 \
		>"$smoketmp/out.log" 2>"$smoketmp/err.log" &
	srvpid=$!
	# Whatever check fails below (set -e exits at once), the server must
	# not outlive the script. set -e still holds inside the trap, so each
	# step tolerates failure: wait reports the killed server's status.
	trap 'kill "$srvpid" 2>/dev/null || true; wait "$srvpid" 2>/dev/null || true; rm -rf "$smoketmp"' EXIT INT TERM
	# The server prints its resolved address ("-listen :0" callers parse it).
	addr=""
	i=0
	while [ $i -lt 100 ]; do
		addr=$(sed -n 's#^topomapd: listening on http://##p' "$smoketmp/out.log")
		[ -n "$addr" ] && break
		sleep 0.1
		i=$((i + 1))
	done
	if [ -z "$addr" ]; then
		echo "topomapd smoke: server never reported its address" >&2
		cat "$smoketmp/err.log" >&2
		exit 1
	fi
	# One mapping must evaluate end to end.
	curl -sf -X POST "http://$addr/v1/map" \
		-d '{"kernel":"fig5","machine":"dunnington","scheme":"base"}' \
		| grep -q '"ok":true'
	# Overload burst: 32 concurrent cold requests against a queue of 8.
	# Every response — success or shed — must be a JSON envelope; the
	# server must stay healthy throughout.
	: >"$smoketmp/burst.log"
	burstpids=""
	b=0
	while [ $b -lt 32 ]; do
		curl -s -X POST "http://$addr/v1/map" \
			-d "{\"kernel\":\"fig5\",\"machine\":\"dunnington\",\"scheme\":\"combined\",\"passes\":$((b % 8 + 1))}" \
			>>"$smoketmp/burst.log" 2>/dev/null &
		burstpids="$burstpids $!"
		b=$((b + 1))
	done
	for p in $burstpids; do
		wait "$p" || true
	done
	if grep -v '"ok"' "$smoketmp/burst.log" | grep -q '[^[:space:]]'; then
		echo "topomapd smoke: overload burst produced a non-envelope response:" >&2
		grep -v '"ok"' "$smoketmp/burst.log" >&2
		exit 1
	fi
	curl -sf "http://$addr/healthz" >/dev/null
	# SIGTERM must drain gracefully: exit 0 and the drain banner.
	kill -TERM "$srvpid"
	if ! wait "$srvpid"; then
		echo "topomapd smoke: server exited non-zero after SIGTERM" >&2
		cat "$smoketmp/err.log" >&2
		exit 1
	fi
	grep -q "drained cleanly" "$smoketmp/out.log"
	trap - EXIT INT TERM
	rm -rf "$smoketmp"
}

if [ "$1" = "lint" ]; then
	lint
	exit 0
fi

if [ "$1" = "topomapd" ]; then
	topomapd_smoke
	exit 0
fi

go build ./...
lint
go test ./...

if [ "$1" = "full" ]; then
	go test -race ./internal/experiments/ ./internal/cachesim/ ./internal/oracle/ ./internal/chaos/
	# Serving layer under the race detector, chaos/soak harness included:
	# 200+ concurrent mixed hostile clients against a live server, asserting
	# well-formed envelopes, retryable sheds, bounded state and no leaked
	# goroutines (internal/serve/chaostest).
	go test -race ./internal/serve/...
	# Pooled simulator arrays (DESIGN.md "Reused simulator state"): cold
	# runs from many goroutines at once, after aborted runs, must match a
	# fresh simulator; repeated because races show up only in some
	# interleavings.
	go test -race -run 'TestPool' -count=10 ./internal/cachesim/
	# The benchmark harness composes cells from the layers' exported
	# functions; its module is outside the root go test ./...
	(cd bench && go test ./...)
	go test -fuzz=FuzzParse -fuzztime=10s ./internal/lang/
	for m in harpertown nehalem dunnington; do
		go run ./cmd/topomap -kernel galgel -machine "$m" -scheme combined -check sampled >/dev/null
	done
	# topomapd lifecycle: boot, serve, survive an overload burst, drain on
	# SIGTERM with exit 0.
	topomapd_smoke
fi
