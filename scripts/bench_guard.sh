#!/bin/sh
# bench_guard: run the decode, replay, trace-digest, canonical-digest and
# encode benchmarks
# and fail loudly if any row regresses past the committed limits in
# scripts/bench_baseline.json:
#   max_allocs_per_op  allocation ceiling. allocs/op is exact at any
#                      benchtime, which is what makes it guardable in CI: the
#                      arena decoder does a fixed handful of allocations per
#                      decode and the fused replay a fixed handful per replay,
#                      so an accidental return to per-record allocation shows
#                      up as a 100x jump no amount of runner noise can hide.
#   min_mb_per_s       throughput floor. This is a *regime* check, not a
#                      perf benchmark: floors carry >2x headroom below
#                      steady-state numbers, so they stay quiet under runner
#                      noise but fail if a row falls back to a slow path
#                      (e.g. the pre-fusion per-record replay at ~145 MB/s
#                      against replay_serial's 250 MB/s floor).
#
# Decode, digest and encode rows run at one iteration (allocs-focused; a
# single iteration says nothing about MB/s, so they carry no floors). Replay rows run a few
# dozen iterations so their MB/s is past cold-cache warmup and meaningfully
# comparable against the floors.
#
# Environment:
#   BENCHTIME         decode -benchtime (default 1x)
#   REPLAY_BENCHTIME  replay -benchtime (default 20x)
set -e
cd "$(dirname "$0")/.."

baseline=scripts/bench_baseline.json

raw=$(go test -run '^$' \
	-bench 'BenchmarkDecodeV(1Serial|2Serial|3Serial|3Parallel)$|BenchmarkTraceDigest$|BenchmarkCanonicalDigest(V1)?$|BenchmarkEncodeV3$' \
	-benchmem -benchtime "${BENCHTIME:-1x}" -count=1 .)
echo "$raw"
rawr=$(go test -run '^$' \
	-bench 'BenchmarkReplay(Serial|Parallel|Allocs)$' \
	-benchmem -benchtime "${REPLAY_BENCHTIME:-20x}" -count=1 .)
echo "$rawr"
raw=$(printf '%s\n%s' "$raw" "$rawr")

printf '%s\n' "$raw" | awk -v baseline="$baseline" '
BEGIN {
	while ((getline line < baseline) > 0) {
		if (match(line, /"(decode|replay|trace|canonical|encode)_[a-z0-9_]+"/)) {
			name = substr(line, RSTART + 1, RLENGTH - 2)
			if (match(line, /"max_allocs_per_op": [0-9]+/))
				ceil[name] = substr(line, RSTART + 21, RLENGTH - 21)
			if (match(line, /"min_mb_per_s": [0-9]+/))
				floor[name] = substr(line, RSTART + 16, RLENGTH - 16)
			known[name] = 1
		}
	}
	close(baseline)
	if (length(known) == 0) {
		print "bench_guard: no limits parsed from " baseline > "/dev/stderr"
		exit 1
	}
}
/^Benchmark(Decode|Replay|TraceDigest|CanonicalDigest|EncodeV3)/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^Benchmark/, "", name)
	# DecodeV3Serial -> decode_v3_serial (same keying as bench.sh rows)
	key = ""
	for (j = 1; j <= length(name); j++) {
		ch = substr(name, j, 1)
		if (ch >= "A" && ch <= "Z") {
			if (key != "") key = key "_"
			key = key tolower(ch)
		} else key = key ch
	}
	gsub(/v_([0-9])/, "v\\1", key)
	mbs = "n/a"; allocs = ""
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "MB/s") mbs = $i
		else if ($(i + 1) == "allocs/op") allocs = $i
	}
	if (allocs == "") {
		print "bench_guard: no allocs/op in row " $1 " (need -benchmem)" > "/dev/stderr"
		exit 1
	}
	seen[key] = 1
	status = "ok"
	if (!(key in known)) {
		status = "NO BASELINE"
		bad = bad " " key
	} else {
		if (key in ceil && allocs + 0 > ceil[key] + 0) {
			status = sprintf("ALLOC REGRESSION (ceiling %d)", ceil[key])
			bad = bad " " key
		}
		if (key in floor && (mbs == "n/a" || mbs + 0 < floor[key] + 0)) {
			status = sprintf("THROUGHPUT REGRESSION (floor %d MB/s)", floor[key])
			bad = bad " " key
		}
	}
	printf "bench_guard: %-20s %8s allocs/op  %10s MB/s  %s\n", key, allocs, mbs, status
}
END {
	for (k in known)
		if (!(k in seen)) {
			print "bench_guard: baseline row " k " missing from bench output" > "/dev/stderr"
			exit 1
		}
	if (bad != "") {
		print "bench_guard: rows past their committed baseline:" bad > "/dev/stderr"
		exit 1
	}
	print "bench_guard: all rows within committed allocs/op ceilings and MB/s floors"
}'
