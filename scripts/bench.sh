#!/bin/sh
# Runs the analyzer's micro benchmarks in one `go test -bench` sweep at the
# machine's GOMAXPROCS, writes BENCH_analyzer.json (a JSON array: a header
# object, then one row per benchmark), and checks every row against its
# limits in scripts/bench_baseline.json.
#
# Each benchmark runs for 1 s three times; a row records the median of each
# figure. bench_test.go builds the fixtures and says what each row times.
# Replay throughput is millions of traced instructions per second
# (minstr_per_s), and a replay row's fusion_speedup is the stepped engine's
# replay time over the fused one's; the prepare row's ms_per_op is one
# ingest preparation's time; every other row's mb_per_s is file bytes per
# second. A *_parallel row's speedup_vs_serial is its *_serial row's ns/op
# over its own.
#
# A baseline limit max_<field> or min_<field> bounds the row's <field>. The
# script fails when a row is missing from the sweep, when a row has no
# limit, or when a row breaches one. `make bench` runs `make check` first.
set -e
cd "$(dirname "$0")/.."

rows='ReplaySerial ReplayParallel Prepare DecodeV1Serial DecodeV2Serial DecodeV3Serial DecodeV3Parallel ReadFileV3 IngestV3 TraceDigest CanonicalDigest CanonicalDigestV1 EncodeV3'

raw=$(go test -run '^$' -bench "^Benchmark($(echo $rows | tr ' ' '|'))\$" -benchmem -count 3 .) || {
	echo "$raw"
	exit 1
}
echo "$raw"

printf '%s\n' "$raw" | awk -v rows="$rows" -v baseline=scripts/bench_baseline.json -v out=BENCH_analyzer.json '
# key maps a benchmark name to its row name: DecodeV3Parallel -> decode_v3_parallel.
function key(name,    k, j, ch) {
	k = ""
	for (j = 1; j <= length(name); j++) {
		ch = substr(name, j, 1)
		if (ch >= "A" && ch <= "Z") {
			if (k != "") k = k "_"
			k = k tolower(ch)
		} else k = k ch
	}
	gsub(/v_([0-9])/, "v\\1", k)
	return k
}
function median(list,    v, n, i, j, t) {
	n = split(list, v, " ")
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) {
			t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
		}
	return v[int((n + 1) / 2)]
}
BEGIN {
	# One baseline row per line: "name": {"max_allocs_per_op": 64, ...}
	while ((getline line < baseline) > 0) {
		if (!match(line, /^ *"[a-z0-9_]+": \{/)) continue
		name = line; sub(/^ *"/, "", name); sub(/".*/, "", name)
		while (match(line, /"(max|min)_[a-z0-9_]+": [0-9.]+/)) {
			lim = substr(line, RSTART + 1, RLENGTH - 1)
			line = substr(line, RSTART + RLENGTH)
			split(lim, kv, "\": ")
			limits[name] = limits[name] " " kv[1] "=" kv[2]
		}
	}
	close(baseline)
	unit["ns/op"] = "ns_per_op"; unit["B/op"] = "bytes_per_op"; unit["allocs/op"] = "allocs_per_op"
	unit["fusion_speedup"] = "fusion_speedup"; unit["ms/op"] = "ms_per_op"
	nf = split("ns_per_op ms_per_op minstr_per_s mb_per_s fusion_speedup bytes_per_op allocs_per_op", fields, " ")
}
/^Benchmark/ {
	name = $1
	procs = 1
	if (match(name, /-[0-9]+$/)) {
		procs = substr(name, RSTART + 1) + 0
		name = substr(name, 1, RSTART - 1)
	}
	k = key(substr(name, 10))
	unit["MB/s"] = k ~ /^replay_/ ? "minstr_per_s" : "mb_per_s"
	for (i = 3; i < NF; i++)
		if ($(i + 1) in unit) runs[k, unit[$(i + 1)]] = runs[k, unit[$(i + 1)]] " " $i
}
END {
	n = split(rows, want, " ")
	printf "[\n  {\"gomaxprocs\": %d}", procs > out
	for (i = 1; i <= n; i++) {
		k = key(want[i])
		wanted[k] = 1
		if (runs[k, "ns_per_op"] == "") {
			bad = bad "\n  " k ": missing from the sweep"
			continue
		}
		s = sprintf("{\"name\": \"%s\"", k)
		for (f = 1; f <= nf; f++)
			if ((k, fields[f]) in runs) {
				got[k, fields[f]] = median(runs[k, fields[f]])
				s = s sprintf(", \"%s\": %s", fields[f], got[k, fields[f]])
			}
		ser = k
		if (sub(/_parallel$/, "_serial", ser) && got[ser, "ns_per_op"] != "")
			s = s sprintf(", \"speedup_vs_serial\": %.2f", got[ser, "ns_per_op"] / got[k, "ns_per_op"])
		printf ",\n  %s}", s > out

		status = "ok"
		if (limits[k] == "") {
			status = "FAIL"
			bad = bad "\n  " k ": no limit in " baseline
		}
		nl = split(limits[k], lims, " ")
		for (l = 1; l <= nl; l++) {
			split(lims[l], kv, "=")
			field = substr(kv[1], 5)
			v = got[k, field]
			if (v == "" || (kv[1] ~ /^max_/ && v + 0 > kv[2] + 0) || (kv[1] ~ /^min_/ && v + 0 < kv[2] + 0)) {
				status = "FAIL"
				bad = bad sprintf("\n  %s: %s %s against %s %s", k, field, v == "" ? "missing" : v, kv[1], kv[2])
			}
		}
		printf "bench: %-20s %s\n", k, status
	}
	print "\n]" > out
	close(out)
	for (name in limits)
		if (!(name in wanted))
			bad = bad "\n  " name ": has a limit but is not a row of the sweep"
	if (bad != "") {
		fflush()
		print "bench: failed against " baseline ":" bad > "/dev/stderr"
		exit 1
	}
	print "bench: wrote " out "; every row within its limits"
}'
