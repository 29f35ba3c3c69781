#!/bin/sh
# Runs the analyzer's key benchmarks and writes BENCH_analyzer.json — a JSON
# ARRAY with one row per benchmark — so future changes have a perf trajectory
# to regress against.
#
# Two sweeps feed the array:
#   1. GOMAXPROCS=1: every benchmark, the stable serial baselines (and the
#      parallel entry points' sequential-fallthrough cost at one core).
#   2. full GOMAXPROCS (skipped when the machine has one core): the parallel
#      benchmarks again, emitted as *_maxprocs rows, so the file actually
#      shows parallel speedups instead of only "cpus: 1" rows.
# Derived fields carry the headline claims:
#   replay_parallel_maxprocs.speedup_vs_serial  (replay scaling, full cores)
#   decode_v3_parallel.speedup_vs_v1_serial     (indexed-decode scaling)
#   decode_v3_parallel_maxprocs.speedup_vs_*    (the same at full GOMAXPROCS)
# The GOMAXPROCS=1 replay_parallel row deliberately carries NO speedup field:
# a one-core "speedup" only measures the sequential fallthrough's overhead
# and has been misread as the scaling claim before. Scaling lives solely on
# the _maxprocs rows, which exist whenever the machine has >1 core.
# trace_digest is the report-cache key's trace hash over a Table-I-scale
# dsb.post trace, and encode_v3 writes the same trace as an indexed v3 file;
# both are in v1 file bytes/s like the decode rows. canonical_digest keys
# that trace's v3 bytes without decoding them (what a tfserve upload of a
# v2/v3 file pays before its cache lookup), in the v3 file bytes/s it reads;
# its canonical_vs_decode_v3 field is its MB/s over decode_v3_serial's.
# canonical_digest_v1 keys the same trace's v1 bytes, rewriting each raw
# address as a delta, in v1 file bytes/s; its canonical_vs_decode_v1 field
# is its MB/s over decode_v1_serial's.
# Decode rows also carry prev_bytes_per_op/prev_allocs_per_op deltas against
# the BENCH_analyzer.json being replaced, so an allocation regression is
# visible in the diff of the file itself.
#
# Environment:
#   BENCH_SKIP_CHECK=1  skip the `make check` gate (CI smoke runs)
#   BENCHTIME=1x        forwarded to -benchtime (default 1s)
set -e
cd "$(dirname "$0")/.."

# Verify before measuring: benchmark numbers from a tree that fails the
# lint or invariant checks (make check runs build/vet/test/race/lint plus
# tfcheck over every workload and the golden-snapshot comparison) are not
# worth recording.
if [ "${BENCH_SKIP_CHECK:-0}" != "1" ]; then
	make check
fi

out=BENCH_analyzer.json
prev=$(mktemp)
trap 'rm -f "$prev"' EXIT
cp "$out" "$prev" 2>/dev/null || : >"$prev"

cores=$(nproc 2>/dev/null || echo 1)

raw=$(GOMAXPROCS=1 go test -run '^$' \
	-bench 'BenchmarkReplay(Serial|Parallel|Allocs)$|BenchmarkDecodeV(1Serial|2Serial|3Serial|3Parallel)$|BenchmarkTraceDigest$|BenchmarkCanonicalDigest(V1)?$|BenchmarkEncodeV3$' \
	-benchmem -benchtime "${BENCHTIME:-1s}" -count=1 .)
echo "$raw"

# Second sweep: the parallel entry points at full GOMAXPROCS. go test
# suffixes benchmark names with -N when N > 1, which is how the awk below
# tells the sweeps apart in the combined stream.
if [ "$cores" -gt 1 ]; then
	raw2=$(GOMAXPROCS="$cores" go test -run '^$' \
		-bench 'BenchmarkReplayParallel$|BenchmarkDecodeV3Parallel$' \
		-benchmem -benchtime "${BENCHTIME:-1s}" -count=1 .)
	echo "$raw2"
	raw=$(printf '%s\n%s' "$raw" "$raw2")
fi

printf '%s\n' "$raw" | awk -v cores="$cores" -v prevfile="$prev" '
BEGIN {
	# Previous run: per-row bytes/op and allocs/op, for delta fields.
	while ((getline line < prevfile) > 0) {
		if (match(line, /"name": "[a-z0-9_]+"/)) {
			pn = substr(line, RSTART + 9, RLENGTH - 10)
			if (match(line, /"bytes_per_op": [0-9]+/))
				pbytes[pn] = substr(line, RSTART + 16, RLENGTH - 16)
			if (match(line, /"allocs_per_op": [0-9]+/))
				pallocs[pn] = substr(line, RSTART + 17, RLENGTH - 17)
		}
	}
	close(prevfile)
}
/^Benchmark/ {
	# Field 1 is "BenchmarkName-N"; N is the GOMAXPROCS used (absent when 1).
	# GOMAXPROCS>1 rows come from the second sweep: keep them under a
	# distinct _maxprocs key so both sweeps coexist in one array.
	name = $1
	procs = 1
	if (match(name, /-[0-9]+$/)) {
		procs = substr(name, RSTART + 1) + 0
		name = substr(name, 1, RSTART - 1)
	}
	sub(/^Benchmark/, "", name)
	if (procs > 1) name = name "MaxProcs"
	# Scan value/unit pairs; units anchor the values, field positions vary.
	ns[name] = ""; mbs[name] = ""; bpo[name] = ""; apo[name] = ""
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns[name] = $i
		else if ($(i + 1) == "MB/s") mbs[name] = $i
		else if ($(i + 1) == "B/op") bpo[name] = $i
		else if ($(i + 1) == "allocs/op") apo[name] = $i
	}
	gomax[name] = procs
	seen[name] = 1
}
function key(name) {
	# ReplaySerial -> replay_serial, DecodeV3Parallel -> decode_v3_parallel
	out = ""
	for (j = 1; j <= length(name); j++) {
		ch = substr(name, j, 1)
		if (ch >= "A" && ch <= "Z") {
			if (out != "") out = out "_"
			out = out tolower(ch)
		} else out = out ch
	}
	gsub(/v_([0-9])/, "v\\1", out)
	gsub(/max_procs/, "maxprocs", out)
	return out
}
function row(name, extra,    s, k) {
	k = key(name)
	s = sprintf("  {\"name\": \"%s\", \"gomaxprocs\": %d, \"ns_per_op\": %s", \
		k, gomax[name], ns[name])
	if (mbs[name] != "") s = s sprintf(", \"mb_per_s\": %s", mbs[name])
	if (bpo[name] != "") s = s sprintf(", \"bytes_per_op\": %s", bpo[name])
	if (apo[name] != "") s = s sprintf(", \"allocs_per_op\": %s", apo[name])
	if (bpo[name] != "" && pbytes[k] != "")
		s = s sprintf(", \"prev_bytes_per_op\": %s, \"bytes_per_op_delta\": %d", \
			pbytes[k], bpo[name] - pbytes[k])
	if (apo[name] != "" && pallocs[k] != "")
		s = s sprintf(", \"prev_allocs_per_op\": %s, \"allocs_per_op_delta\": %d", \
			pallocs[k], apo[name] - pallocs[k])
	if (extra != "") s = s ", " extra
	return s "}"
}
END {
	n = split("ReplaySerial ReplayParallel ReplayAllocs " \
		"DecodeV1Serial DecodeV2Serial DecodeV3Serial DecodeV3Parallel TraceDigest CanonicalDigest CanonicalDigestV1 EncodeV3", want, " ")
	# At >1 cores the second sweep must have produced the _maxprocs rows.
	if (cores > 1) {
		want[++n] = "ReplayParallelMaxProcs"
		want[++n] = "DecodeV3ParallelMaxProcs"
	}
	missing = ""
	for (i = 1; i <= n; i++)
		if (!(want[i] in seen) || ns[want[i]] == "")
			missing = missing " " want[i]
	if (missing != "") {
		print "bench.sh: missing benchmark rows:" missing > "/dev/stderr"
		exit 1
	}
	print "["
	print "  {\"benchmark\": \"parsec.vips, 64 threads, warp 32\", \"cpus\": " cores "},"
	print row("ReplaySerial") ","
	print row("ReplayParallel") ","
	print row("ReplayAllocs") ","
	print row("DecodeV1Serial") ","
	print row("DecodeV2Serial") ","
	print row("DecodeV3Serial") ","
	print row("TraceDigest") ","
	print row("CanonicalDigest", \
		sprintf("\"canonical_vs_decode_v3\": %.2f", mbs["CanonicalDigest"] / mbs["DecodeV3Serial"])) ","
	print row("CanonicalDigestV1", \
		sprintf("\"canonical_vs_decode_v1\": %.2f", mbs["CanonicalDigestV1"] / mbs["DecodeV1Serial"])) ","
	print row("EncodeV3") ","
	tail = ""
	if (cores > 1) tail = ","
	print row("DecodeV3Parallel", \
		sprintf("\"speedup_vs_v1_serial\": %.2f", ns["DecodeV1Serial"] / ns["DecodeV3Parallel"])) tail
	if (cores > 1) {
		print row("ReplayParallelMaxProcs", \
			sprintf("\"speedup_vs_serial\": %.2f", ns["ReplaySerial"] / ns["ReplayParallelMaxProcs"])) ","
		print row("DecodeV3ParallelMaxProcs", \
			sprintf("\"speedup_vs_v1_serial\": %.2f", ns["DecodeV1Serial"] / ns["DecodeV3ParallelMaxProcs"]))
	}
	print "]"
}' > "$out"

echo "wrote $out:"
cat "$out"
