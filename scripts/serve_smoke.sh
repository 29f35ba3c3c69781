#!/bin/sh
# serve_smoke.sh — end-to-end smoke of the tfserve analysis service.
#
# Builds the binaries, traces a workload, starts a real tfserve instance,
# and proves the service round trip is faithful: the report fetched through
# `tfanalyze -server` must be byte-identical (as indented JSON) to the one
# `tfanalyze -json` computes locally. When curl is available the raw HTTP
# surface is exercised too: two identical POSTs must return byte-identical
# bodies, with the second served from the report cache. Then the
# tflint/tfcheck/tfstatic -server modes, a leg of non-default options
# whose remote output must match the local one, and a SIGTERM
# graceful-shutdown check.
#
# Usage: scripts/serve_smoke.sh   (CI runs it as the "tfserve smoke" step)
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=
cleanup() {
	[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT

echo "serve_smoke: building binaries"
go build -o "$workdir/bin/" ./cmd/tfserve ./cmd/tftrace ./cmd/tfanalyze ./cmd/tflint ./cmd/tfcheck ./cmd/tfstatic
bin="$workdir/bin"

echo "serve_smoke: tracing workload other.pigz"
"$bin/tftrace" -workload other.pigz -index -q -o "$workdir/pigz.tft"

port="${TFSERVE_PORT:-18787}"
base="http://127.0.0.1:$port"
"$bin/tfserve" -addr "127.0.0.1:$port" -cache-dir "$workdir/cache" &
server_pid=$!

echo "serve_smoke: local analysis"
"$bin/tfanalyze" -json -trace "$workdir/pigz.tft" -warp 32 >"$workdir/local.json"

echo "serve_smoke: remote analysis via $base"
ok=
for _ in $(seq 1 50); do
	if "$bin/tfanalyze" -json -trace "$workdir/pigz.tft" -warp 32 \
		-server "$base" >"$workdir/remote.json" 2>"$workdir/remote.err"; then
		ok=1
		break
	fi
	kill -0 "$server_pid" 2>/dev/null || { echo "serve_smoke: FAIL: tfserve died" >&2; exit 1; }
	sleep 0.2
done
if [ -z "$ok" ]; then
	echo "serve_smoke: FAIL: server never answered:" >&2
	cat "$workdir/remote.err" >&2
	exit 1
fi

if ! diff -u "$workdir/local.json" "$workdir/remote.json"; then
	echo "serve_smoke: FAIL: remote report differs from local tfanalyze -json" >&2
	exit 1
fi
echo "serve_smoke: remote report matches local analysis"

if command -v curl >/dev/null 2>&1; then
	echo "serve_smoke: raw POST via curl (dedup/cache headers)"
	curl -sSf --data-binary "@$workdir/pigz.tft" -D "$workdir/h1.txt" \
		"$base/v1/analyze?warp=32" >"$workdir/curl1.json"
	curl -sSf --data-binary "@$workdir/pigz.tft" -D "$workdir/h2.txt" \
		"$base/v1/analyze?warp=32" >"$workdir/curl2.json"
	cmp "$workdir/curl1.json" "$workdir/curl2.json" || {
		echo "serve_smoke: FAIL: repeated POSTs returned different bodies" >&2
		exit 1
	}
	grep -qi '^x-tfserve-cache: hit' "$workdir/h2.txt" || {
		echo "serve_smoke: FAIL: second POST was not a cache hit" >&2
		cat "$workdir/h2.txt" >&2
		exit 1
	}
	echo "serve_smoke: repeat POST byte-identical and cache-served"
else
	echo "serve_smoke: curl not found; skipping raw-HTTP leg"
fi

# pigz's divergence findings are real warnings, so lint at -severity error
# (exit 0) and instead require the remote report to match the local one.
echo "serve_smoke: tflint -server"
"$bin/tflint" -json -severity error "$workdir/pigz.tft" >"$workdir/lint-local.json"
"$bin/tflint" -json -severity error -server "$base" "$workdir/pigz.tft" >"$workdir/lint-remote.json"
if ! diff -u "$workdir/lint-local.json" "$workdir/lint-remote.json"; then
	echo "serve_smoke: FAIL: remote lint report differs from local tflint -json" >&2
	exit 1
fi

echo "serve_smoke: tfcheck -server"
"$bin/tfcheck" -server "$base" -warps 1,8 -parallel 1,2 -q "$workdir/pigz.tft"

echo "serve_smoke: tfstatic -server"
"$bin/tfstatic" -json -workload vectoradd >"$workdir/static-local.json"
"$bin/tfstatic" -json -workload vectoradd -server "$base" >"$workdir/static-remote.json"
if ! diff -u "$workdir/static-local.json" "$workdir/static-remote.json"; then
	echo "serve_smoke: FAIL: remote static report differs from local tfstatic -json" >&2
	exit 1
fi
"$bin/tfstatic" -server "$base" -workload vectoradd -locks -q

# The typed client encodes every option the local path reads: with
# non-default options the remote output must still match the local one.
same() {
	if ! diff -u "$workdir/$1-local.json" "$workdir/$1-remote.json"; then
		echo "serve_smoke: FAIL: remote $1 output differs from local" >&2
		exit 1
	fi
}
echo "serve_smoke: non-default options"
set -- -json -trace "$workdir/pigz.tft" -warp 8 -formation strided -locks
"$bin/tfanalyze" "$@" >"$workdir/analyze-nd-local.json"
"$bin/tfanalyze" "$@" -server "$base" >"$workdir/analyze-nd-remote.json"
same analyze-nd
set -- -json -severity error -formation greedy -passes divergence
"$bin/tflint" "$@" "$workdir/pigz.tft" >"$workdir/lint-nd-local.json"
"$bin/tflint" "$@" -server "$base" "$workdir/pigz.tft" >"$workdir/lint-nd-remote.json"
same lint-nd
set -- -json -all -mem -opt O3
"$bin/tfstatic" "$@" >"$workdir/static-nd-local.json"
"$bin/tfstatic" "$@" -server "$base" >"$workdir/static-nd-remote.json"
same static-nd

echo "serve_smoke: graceful shutdown"
kill -TERM "$server_pid"
i=0
while kill -0 "$server_pid" 2>/dev/null; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "serve_smoke: FAIL: tfserve did not exit after SIGTERM" >&2; exit 1; }
	sleep 0.1
done
server_pid=

echo "serve_smoke: OK"
