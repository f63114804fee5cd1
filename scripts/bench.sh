#!/bin/sh
# Core benchmark runner.
#
#   scripts/bench.sh [full|smoke] [outdir]
#
# full (default): the core benchmark set with -count=5 at a fixed
# iteration count, so two runs are directly comparable and the raw
# output feeds straight into benchstat:
#
#   scripts/bench.sh full before/ && ... && scripts/bench.sh full after/
#   benchstat before/BENCH_core.txt after/BENCH_core.txt
#
# smoke: one tiny iteration of the same set — wired into scripts/ci.sh
# so the benchmarks themselves cannot silently rot. Smoke mode also runs
# TestBenchQuiescentSmoke first, which drives a miniature pairs run per
# factory and asserts the post-run accounting snapshot passes
# VerifyQuiescent — a reclamation leak fails the benchmark gate.
#
# Smoke mode also gates the TurnPlus fast path: the uncontended
# TurnPlus/FAA(YMC) ns/op ratio (min-of-runs each, measured at a fixed
# ~20ms window — the 50x smoke readings are too noisy to gate on) must
# stay at or below RATIO_LIMIT (default 1.5). The FAA fast path is the
# whole point of TurnPlus; if an uncontended round trip drifts toward
# the consensus slow path's cost, the smoke fails rather than letting
# the regression age into the recorded baselines.
#
# Smoke mode also gates the batched service hot path: the k=32 batched
# round trip must show <= 20 amortized allocs/msg and <= 0.2x the
# single-op ns/op per message, both read from the same smoke run so
# host speed cancels. Batching is a perf feature; if its amortization
# edge erodes, the smoke fails.
#
# Smoke mode also gates sharded-front scaling on multi-core hosts: the
# BenchmarkShardedPairs shards=1/shards=4 min-of-runs ratio must show at
# least SHARD_RATIO_LIMIT (default 2x) speedup when nproc >= 4. On
# smaller hosts the gate is skipped — shards serialize on one core, so
# the ratio measures routing overhead, not the isolation being gated.
#
# Smoke mode additionally guards the fault-point layer's zero-cost
# contract (internal/inject): it reruns the adapter-overhead family at a
# long fixed iteration count in the release build and in the -tags
# faultpoints build, prints the comparison (informational — the
# faultpoints build legitimately pays one atomic load per point), and
# then gates the RELEASE build against the recorded gate baseline
# results/BENCH_gate.json: if the release min-of-runs exceeds the
# baseline mean-of-runs (both at the same benchtime; the baseline is
# loosened, never tightened, by the BenchmarkCalibration host-speed
# anchor measured in the same run) by more than BENCH_TOLERANCE
# (default 0.02, i.e. 2%) plus a 2ns absolute floor, the script fails —
# instrumentation is not allowed to cost anything when compiled out.
# The gate family runs at GATE_BENCHTIME (500000x, a ~175ms measurement
# window) rather than the full set's 20000x: a ~7ms window is dominated
# by scheduler jitter on a 1-CPU host and min-of-3 swings ±10%, while
# readings over ~175ms windows are stable to a couple percent.
# Record/refresh both baselines with:
#
#   scripts/bench.sh full results/
#
# Smoke mode also gates the topic layer's allocation count: the k=32
# BenchmarkTopicBatch cycle (produce, consume, ack with no HTTP) must
# stay at or below 0.25 allocs/msg. With
# slab-indexed delivery records and batch-sized rings a batch costs 4
# allocations (0.125/msg); a per-message allocation creeping back in
# fails the smoke.
#
# Both modes write outdir/BENCH_core.txt (verbatim `go test -bench`
# output) and outdir/BENCH_core.json (benchmark name -> median ns/op
# and mean allocs/op across the -count repetitions, plus the host that
# measured it: nproc, GOMAXPROCS, Go version, CPU model; the median
# because the full set's short windows catch occasional descheduling
# spikes). Full mode additionally
# writes outdir/BENCH_gate.{txt,json} — the gate family at
# GATE_BENCHTIME with mean ns/op per name — which is what smoke gates
# against.
set -eu
cd "$(dirname "$0")/.."

# All output lands under results/ by default — the one canonical home
# for recorded baselines; pass an explicit outdir for scratch runs
# (ci.sh smoke uses a mktemp dir). Nothing is ever written to the repo
# root.
MODE="${1:-full}"
OUT="${2:-results}"

# The core set: adapter overhead (hot-path cost of the public API),
# uncontended single-thread round trips, the per-access protect cost of
# each reclamation backend in isolation (the X12 speed-axis mechanism —
# its ordering is structural, so it stays readable even when host noise
# blurs the full-queue backend rows), the sparse-registration family
# (active-slot scan cost, experiment X8), the chain-batch family
# (experiment X10: per-item batch cost plus the 4-thread batch-vs-single
# pairs comparison), the oversubscribed slot-lease family (experiment
# X11: slot acquisition under goroutine counts far above MaxThreads),
# the sharded-front pairs family (same experiment: routing cost at
# shards 1 vs 4), the service round trip (one produce→consume→ack cycle
# through the real HTTP front), the topic layer alone (the same cycle at
# k=32 with no HTTP: delivery records, leases and the backend batch
# ops), and the pure-ALU calibration anchor the parity gate uses to
# normalize for host-speed drift.
PATTERN='BenchmarkAdapterOverhead|BenchmarkUncontended|BenchmarkReclaimProtect|BenchmarkSparseRegistration|BenchmarkEnqueueBatch|BenchmarkDequeueBatch|BenchmarkBatchPairs|BenchmarkAutoOversubscribed|BenchmarkShardedPairs|BenchmarkServiceRoundTrip|BenchmarkTopicBatch|BenchmarkCalibration'

# The zero-cost gate family and its fixed measurement window. Baseline
# (full mode) and gate (smoke mode) MUST use the same benchtime:
# fixed-iteration runs amortize per-run setup over the iteration count,
# so comparing different counts reads as a phantom regression. 500000x
# at ~350ns/op is a ~175ms window — long enough that per-run readings
# are stable against scheduler jitter on a 1-CPU host. The baseline
# records the MEAN across GATE_BASE_COUNT runs (the central estimate);
# the smoke gate compares its MIN across GATE_COUNT runs against it, so
# the min<=mean slack is headroom on top of the explicit tolerance.
GATE_PATTERN='BenchmarkAdapterOverhead|BenchmarkCalibration'
GATE_COUNT=3
GATE_BASE_COUNT=5
GATE_BENCHTIME=500000x
GATE_TXT="$OUT/BENCH_gate.txt"
GATE_JSON="$OUT/BENCH_gate.json"

# gate_json extracts mean ns/op per benchmark name from go test -bench
# output files into the gate-baseline JSON shape.
gate_json() {
	awk '
	/^Benchmark/ {
		ns = $3 + 0
		if (!($1 in cnt)) order[++n] = $1
		cnt[$1]++
		sumns[$1] += ns
	}
	END {
		printf "{\n"
		for (i = 1; i <= n; i++) {
			name = order[i]
			printf "  \"%s\": {\"ns_per_op\": %.2f}%s\n", \
				name, sumns[name] / cnt[name], (i < n ? "," : "")
		}
		printf "}\n"
	}
	' "$@"
}

case "$MODE" in
smoke)
	COUNT=1
	BENCHTIME=50x
	;;
full)
	COUNT=5
	BENCHTIME=20000x
	;;
*)
	echo "usage: $0 [full|smoke] [outdir]" >&2
	exit 2
	;;
esac

mkdir -p "$OUT"
TXT="$OUT/BENCH_core.txt"
JSON="$OUT/BENCH_core.json"

if [ "$MODE" = smoke ]; then
	echo "==> quiescent snapshot smoke"
	go test -run 'TestBenchQuiescentSmoke' .
fi

go test -run '^$' -bench "$PATTERN" -benchmem \
	-count="$COUNT" -benchtime="$BENCHTIME" -timeout 1800s . | tee "$TXT"

# ns/op is the MEDIAN of the count reps, not the mean: the full set's
# ~7ms windows catch a descheduling burst in roughly one rep out of five
# on a shared 1-CPU host, and a single 20% spike drags a mean while the
# median shrugs it off. allocs/op stays a mean (it is constant across
# reps). The gate family keeps its mean — its ~175ms windows are stable.
HOST="nproc=$(nproc 2>/dev/null || echo 1) gomaxprocs=${GOMAXPROCS:-$(nproc 2>/dev/null || echo 1)} $(go env GOVERSION) cpu=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null | tr -d '"')"
awk -v host="$HOST" '
/^Benchmark/ {
	name = $1
	allocs = ""
	for (i = 4; i <= NF; i++) {
		if ($i == "allocs/op") allocs = $(i - 1)
	}
	if (!(name in cnt)) order[++n] = name
	cnt[name]++
	ns[name, cnt[name]] = $3
	if (allocs != "") suma[name] += allocs
}
END {
	printf "{\n"
	for (i = 1; i <= n; i++) {
		name = order[i]
		m = cnt[name]
		for (a = 1; a <= m; a++) v[a] = ns[name, a]
		for (a = 2; a <= m; a++) {
			x = v[a]
			for (b = a - 1; b >= 1 && v[b] > x; b--) v[b + 1] = v[b]
			v[b + 1] = x
		}
		if (m % 2) med = v[(m + 1) / 2]
		else med = (v[m / 2] + v[m / 2 + 1]) / 2
		printf "  \"%s\": {\"ns_per_op\": %.2f, \"allocs_per_op\": %.2f, \"host\": \"%s\"}%s\n", \
			name, med, suma[name] / cnt[name], host, (i < n ? "," : "")
	}
	printf "}\n"
}
' "$TXT" >"$JSON"

echo "wrote $TXT and $JSON"

if [ "$MODE" = full ]; then
	echo "==> recording gate baseline (gate family at $GATE_BENCHTIME, mean of $GATE_BASE_COUNT)"
	go test -run '^$' -bench "$GATE_PATTERN" -count="$GATE_BASE_COUNT" \
		-benchtime="$GATE_BENCHTIME" -timeout 600s . | tee "$GATE_TXT"
	gate_json "$GATE_TXT" >"$GATE_JSON"
	echo "wrote $GATE_TXT and $GATE_JSON"
fi

if [ "$MODE" = smoke ]; then
	# TurnPlus fast-path ratio gate: uncontended TurnPlus vs FAA(YMC),
	# min of RATIO_COUNT runs each at a fixed ~20ms window.
	RATIO_TXT="$OUT/BENCH_ratio.txt"
	RATIO_COUNT=3
	RATIO_BENCHTIME=200000x

	echo "==> TurnPlus fast-path ratio gate (uncontended, limit ${RATIO_LIMIT:-1.5}x FAA)"
	go test -run '^$' -bench 'BenchmarkUncontended/^(TurnPlus|FAA\(YMC\))$' \
		-count="$RATIO_COUNT" -benchtime="$RATIO_BENCHTIME" -timeout 600s . >"$RATIO_TXT"
	awk -v limit="${RATIO_LIMIT:-1.5}" '
	/^BenchmarkUncontended\/TurnPlus/ { if (!tp || $3 + 0 < tp) tp = $3 + 0 }
	/^BenchmarkUncontended\/FAA/      { if (!faa || $3 + 0 < faa) faa = $3 + 0 }
	END {
		if (!tp || !faa) {
			print "  ratio gate: missing TurnPlus or FAA(YMC) uncontended rows" > "/dev/stderr"
			exit 1
		}
		ratio = tp / faa
		ok = (ratio <= limit)
		printf "  TurnPlus %.2f ns/op / FAA(YMC) %.2f ns/op = %.2fx (limit %.2fx)   %s\n", \
			tp, faa, ratio, limit, (ok ? "ok" : "REGRESSION")
		exit !ok
	}
	' "$RATIO_TXT" || {
		echo "bench gate: TurnPlus uncontended cost exceeds ${RATIO_LIMIT:-1.5}x FAA(YMC) — the fast path regressed" >&2
		exit 1
	}

	# Batched-service gate: the batch endpoints exist to amortize the
	# per-message HTTP + admission toll, so the k=32 batched round trip
	# must hold both halves of that claim against the single-op row from
	# the same run: amortized allocations <= BATCH_ALLOC_LIMIT (default
	# 20) allocs/msg, and amortized latency <= BATCH_NS_FRAC (default
	# 0.2) of the single-op ns/op. Same-run comparison, so host speed
	# cancels out.
	echo "==> batched-service gate (k=32: <= ${BATCH_ALLOC_LIMIT:-20} allocs/msg, <= ${BATCH_NS_FRAC:-0.2}x single-op ns/msg)"
	awk -v alim="${BATCH_ALLOC_LIMIT:-20}" -v frac="${BATCH_NS_FRAC:-0.2}" '
	$1 ~ /^BenchmarkServiceRoundTrip(-[0-9]+)?$/ {
		if (!single || $3 + 0 < single) single = $3 + 0
	}
	$1 ~ /^BenchmarkServiceRoundTripBatch\/k=32(-[0-9]+)?$/ {
		if (!batch || $3 + 0 < batch) batch = $3 + 0
		for (i = 4; i <= NF; i++) if ($i == "allocs/op") allocs = $(i - 1) + 0
	}
	END {
		if (!single || !batch) {
			print "  batch gate: missing single-op or k=32 batch rows" > "/dev/stderr"
			exit 1
		}
		permsg = batch / 32
		perallocs = allocs / 32
		nsok = (permsg <= single * frac)
		aok = (perallocs <= alim)
		printf "  batch k=32 %.0f ns/op -> %.0f ns/msg vs single-op %.0f ns/op (limit %.0f)   %s\n", \
			batch, permsg, single, single * frac, (nsok ? "ok" : "REGRESSION")
		printf "  batch k=32 %.1f allocs/op -> %.2f allocs/msg (limit %.1f)   %s\n", \
			allocs, perallocs, alim, (aok ? "ok" : "REGRESSION")
		exit !(nsok && aok)
	}
	' "$TXT" || {
		echo "bench gate: batched round trip lost its amortization edge (BATCH_ALLOC_LIMIT=${BATCH_ALLOC_LIMIT:-20} allocs/msg, BATCH_NS_FRAC=${BATCH_NS_FRAC:-0.2}x single-op)" >&2
		exit 1
	}

	# Topic-layer allocation gate: BenchmarkTopicBatch reports per
	# 32-message cycle, so allocs/op / 32 is allocs per message.
	echo "==> topic-batch alloc gate (k=32: <= 0.25 allocs/msg)"
	awk -v alim=0.25 '
	$1 ~ /^BenchmarkTopicBatch(-[0-9]+)?$/ {
		for (i = 4; i <= NF; i++) if ($i == "allocs/op") { allocs = $(i - 1) + 0; seen = 1 }
	}
	END {
		if (!seen) {
			print "  topic gate: missing BenchmarkTopicBatch row" > "/dev/stderr"
			exit 1
		}
		per = allocs / 32
		ok = (per <= alim)
		printf "  topic-batch %.1f allocs/op -> %.3f allocs/msg (limit %.2f)   %s\n", \
			allocs, per, alim, (ok ? "ok" : "REGRESSION")
		exit !ok
	}
	' "$TXT" || {
		echo "bench gate: topic layer allocates per message again (> 0.25 allocs/msg)" >&2
		exit 1
	}

	# QSBR protect-overhead gate: the qsbr backend's whole pitch is a
	# near-zero read side (one plain region entry per operation, no
	# per-access protection stores), so the uncontended Turn(qsbr) round
	# trip must not cost more than the hazard-backed Turn row
	# (QSBR_RATIO_LIMIT, default 1.0 — qsbr-protect <= hazard-protect).
	# Min of RATIO_COUNT runs each, same fixed window as the fast-path
	# gate.
	QSBR_TXT="$OUT/BENCH_qsbr.txt"
	echo "==> QSBR protect gate (uncontended Turn(qsbr) <= ${QSBR_RATIO_LIMIT:-1.0}x hazard Turn)"
	go test -run '^$' -bench 'BenchmarkUncontended/^(Turn|Turn\(qsbr\))$' \
		-count="$RATIO_COUNT" -benchtime="$RATIO_BENCHTIME" -timeout 600s . >"$QSBR_TXT"
	awk -v limit="${QSBR_RATIO_LIMIT:-1.0}" '
	$1 ~ /^BenchmarkUncontended\/Turn\(qsbr\)(-[0-9]+)?$/ { if (!qs || $3 + 0 < qs) qs = $3 + 0; next }
	$1 ~ /^BenchmarkUncontended\/Turn(-[0-9]+)?$/         { if (!hz || $3 + 0 < hz) hz = $3 + 0 }
	END {
		if (!qs || !hz) {
			print "  qsbr gate: missing Turn or Turn(qsbr) uncontended rows" > "/dev/stderr"
			exit 1
		}
		ratio = qs / hz
		ok = (ratio <= limit)
		printf "  Turn(qsbr) %.2f ns/op / Turn %.2f ns/op = %.2fx (limit %.2fx)   %s\n", \
			qs, hz, ratio, limit, (ok ? "ok" : "REGRESSION")
		exit !ok
	}
	' "$QSBR_TXT" || {
		echo "bench gate: Turn(qsbr) uncontended cost exceeds ${QSBR_RATIO_LIMIT:-1.0}x the hazard Turn row — qsbr protect must not cost more than hazard protect" >&2
		exit 1
	}

	# Sharded-front scaling gate: shards=4 must beat shards=1 by at
	# least SHARD_RATIO_LIMIT (default 2x) on the multi-worker pairs
	# benchmark — but only on hosts with >= 4 CPUs. On fewer cores the
	# shards can only serialize (routing cost with no parallelism to
	# isolate), so the ratio carries no signal and the gate is skipped;
	# the structural case is recorded in results/oversub_x11.md.
	NCPU="$(nproc 2>/dev/null || echo 1)"
	if [ "${NCPU:-1}" -ge 4 ]; then
		SHARD_TXT="$OUT/BENCH_shard.txt"
		SHARD_COUNT=3
		SHARD_BENCHTIME=200000x
		echo "==> sharded scaling gate (shards=4 >= ${SHARD_RATIO_LIMIT:-2.0}x shards=1, $NCPU CPUs)"
		go test -run '^$' -bench 'BenchmarkShardedPairs' \
			-count="$SHARD_COUNT" -benchtime="$SHARD_BENCHTIME" -timeout 600s . >"$SHARD_TXT"
		awk -v limit="${SHARD_RATIO_LIMIT:-2.0}" '
		/^BenchmarkShardedPairs\/shards=1/ { if (!s1 || $3 + 0 < s1) s1 = $3 + 0 }
		/^BenchmarkShardedPairs\/shards=4/ { if (!s4 || $3 + 0 < s4) s4 = $3 + 0 }
		END {
			if (!s1 || !s4) {
				print "  shard gate: missing shards=1 or shards=4 rows" > "/dev/stderr"
				exit 1
			}
			speedup = s1 / s4
			ok = (speedup >= limit)
			printf "  shards=1 %.2f ns/op / shards=4 %.2f ns/op = %.2fx speedup (limit %.2fx)   %s\n", \
				s1, s4, speedup, limit, (ok ? "ok" : "REGRESSION")
			exit !ok
		}
		' "$SHARD_TXT" || {
			echo "bench gate: sharded front shards=4 speedup below ${SHARD_RATIO_LIMIT:-2.0}x on a $NCPU-CPU host" >&2
			exit 1
		}
	else
		echo "==> sharded scaling gate skipped ($NCPU CPU(s); needs >= 4 for the ratio to carry signal)"
	fi

	# Zero-cost gate for the fault-point layer: min-of-runs vs the
	# recorded min-of-runs baseline, same benchtime on both sides.
	FP_TXT="$OUT/BENCH_faultpoints.txt"

	echo "==> fault-point parity: release vs -tags faultpoints (informational)"
	go test -run '^$' -bench "$GATE_PATTERN" -count="$GATE_COUNT" \
		-benchtime="$GATE_BENCHTIME" -timeout 600s . >"$GATE_TXT"
	go test -tags faultpoints -run '^$' -bench "$GATE_PATTERN" -count="$GATE_COUNT" \
		-benchtime="$GATE_BENCHTIME" -timeout 600s . >"$FP_TXT"
	awk '
	/^Benchmark/ {
		ns = $3 + 0
		key = FILENAME SUBSEP $1
		if (!($1 in names)) { names[$1] = 1; order[++n] = $1 }
		if (!(key in minns) || ns < minns[key]) minns[key] = ns
	}
	END {
		for (i = 1; i <= n; i++) {
			name = order[i]
			rel = minns[ARGV[1] SUBSEP name]
			fp = minns[ARGV[2] SUBSEP name]
			delta = (rel > 0) ? (fp - rel) * 100.0 / rel : 0
			printf "  %-50s release %9.2f ns/op   faultpoints %9.2f ns/op   (%+.1f%%)\n", name, rel, fp, delta
		}
	}
	' "$GATE_TXT" "$FP_TXT"

	BASE="results/BENCH_gate.json"
	echo "==> release parity gate vs $BASE"
	if [ -f "$BASE" ]; then
		awk -v tol="${BENCH_TOLERANCE:-0.02}" -v floor=2.0 '
		NR == FNR {
			if (match($0, /"Benchmark[^"]*"/)) {
				name = substr($0, RSTART + 1, RLENGTH - 2)
				rest = substr($0, RSTART + RLENGTH)
				if (match(rest, /"ns_per_op": *[0-9.]+/)) {
					v = substr(rest, RSTART, RLENGTH)
					sub(/"ns_per_op": */, "", v)
					base[name] = v + 0
				}
			}
			next
		}
		/^Benchmark/ {
			ns = $3 + 0
			if (!($1 in minns)) { names[$1] = 1; order[++n] = $1 }
			if (!($1 in minns) || ns < minns[$1]) { minns[$1] = ns }
		}
		END {
			# Host-speed allowance: the calibration anchor (pure ALU,
			# no repo code) can only shift with the machine, so if it
			# reads slower than at baseline the queue limits loosen by
			# the same ratio. The scale is clamped at 1 — a faster
			# anchor never tightens the gate, because the anchor and
			# the queue workloads do not speed up in lockstep.
			scale = 1.0
			for (i = 1; i <= n; i++) {
				name = order[i]
				if (name ~ /^BenchmarkCalibration/ && name in base && base[name] > 0) {
					scale = minns[name] / base[name]
					if (scale < 1.0) scale = 1.0
					printf "  %-50s base %9.2f   now(min) %9.2f   host-speed scale %.3f\n", \
						name, base[name], minns[name], scale
				}
			}
			bad = 0
			for (i = 1; i <= n; i++) {
				name = order[i]
				if (name ~ /^BenchmarkCalibration/) continue
				if (!(name in base)) {
					printf "  %-50s no baseline entry (record with: scripts/bench.sh full results/)\n", name
					continue
				}
				lim = base[name] * scale * (1 + tol) + floor
				ok = (minns[name] <= lim)
				printf "  %-50s base %9.2f   now(min) %9.2f   limit %9.2f   %s\n", \
					name, base[name], minns[name], lim, (ok ? "ok" : "REGRESSION")
				if (!ok) bad = 1
			}
			exit bad
		}
		' "$BASE" "$GATE_TXT" || {
			echo "bench gate: release build regressed vs $BASE (tolerance ${BENCH_TOLERANCE:-0.02} + 2ns);" >&2
			echo "if the change is intentional, refresh the baseline: scripts/bench.sh full results/" >&2
			exit 1
		}
	else
		echo "  no baseline at $BASE; record one with: scripts/bench.sh full results/"
	fi
fi
