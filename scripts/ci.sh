#!/bin/sh
# The full correctness gate, exactly as CI runs it. Thirteen passes:
#
#   1. build + vet of every package, and the importer check: every
#      ./internal/... package must be imported by some other non-test
#      package of the module (test support — a package that itself
#      imports "testing", such as internal/qtest — is exempt), so a
#      package nothing uses fails CI by name instead of lingering,
#   2. the full test suite in the release build (no handle validation
#      on the hot path),
#   3. the same suite under -tags debughandles, which compiles the
#      checkHandle/qrt.CheckSlot validation back in — the misuse-panic
#      tests (closed handle, cross-queue handle) only run here,
#   4. the race detector over the short suite in both build modes,
#      which is what actually exercises the AutoQueue handle cache and
#      qrt slot registry under contention,
#   5. the leak gate: the handle-lifecycle and close-race tests under
#      the race detector with handle validation on, asserting every
#      queue's quiescent snapshot (drain-on-release, no leaked slots,
#      hazard backlog within the paper's bound),
#   6. a smoke run of the core benchmark set (scripts/bench.sh smoke),
#      so the benchmarks cannot silently rot — including the fault-point
#      zero-cost gate: the release build must stay within 2% of the
#      recorded baseline (results/BENCH_gate.json) or the smoke fails,
#   7. the chaos gate: the fault-point injection suite (chaos_test.go,
#      internal/inject, the mpsc blocking-window regression) under
#      -race with both the faultpoints and debughandles tags, at a
#      bounded wall-clock, plus the consensus-engine and TurnPlus
#      packages under -race in the faultpoints build and one scripted
#      run of the fastpath chaos scenario (cmd/chaos) — a TurnPlus
#      thread parked inside the fast-path claim window must not block
#      the slow-path completers. This is where wait-freedom and
#      bounded reclamation are tested against parked, crashed, and
#      delayed threads on the real queues,
#   8. the sharded/lease gate: the slot-lease lifecycle tests (churn
#      across every constructor, lease-expiry backlog drains — including
#      through the sharded front's per-shard release mirror) and the
#      shard-isolation chaos tests (a victim parked mid-operation inside
#      one shard while holding a lease; other shards progress, stolen
#      dequeues stay exactly-once, per-shard hazard bounds hold) under
#      -race with both the faultpoints and debughandles tags, plus one
#      scripted run of the shard chaos scenario (cmd/chaos),
#   9. the reclamation-backend gate: the generic Reclaimer conformance
#      suite (protect-blocks-delete, drain-on-release, bound-respected,
#      crash-leaves-bound, orphan-residue) over all four backends, the
#      backend churn matrices for core and TurnPlus, the stranded-slot
#      and holdout regression gates, the hazard bound-saturation proof,
#      and the 4-way parked-reader chaos contrast (hazard/eras plateau
#      at their stated ceilings, epoch/qsbr grow unbounded) — all under
#      -race -tags "faultpoints debughandles",
#  10. the service gate: the queue-as-a-service layer (internal/service,
#      internal/account, internal/vars) — quota/breaker/lease unit suite
#      plus the end-to-end chaos tests through the HTTP surface (parked
#      reader bounded by the backend Bound with the breaker shedding,
#      crashed consumers exactly-once over the event history, slow-reader
#      redelivery with stale-ack refusal, stalled-connection isolation,
#      graceful drain to VerifyQuiescent) under -race with both the
#      faultpoints and debughandles tags,
#  11. the batched-service gate: the wire-level batch endpoints
#      (produce-batch/consume-batch/ack-batch over length-prefixed
#      frames) — frame codec round trips and truncation rejection,
#      AdmitN partial-admission 429s, stale-token ack-batch partial
#      results, slab recycling exactness, long-poll wake and
#      drain-interaction, the SvcBatchLease chaos scenario (a
#      consumer parked with a whole batch of committed leases; every
#      lease redelivered exactly once, every stale ack refused) and a
#      consume-batch crashed before its first lease (500, slots
#      refunded, every dequeued id delivered once later) under -race
#      with both the faultpoints and debughandles tags,
#  12. the multi-CPU pass: TurnPlus, the sharded front, the service,
#      Kogan-Petrank, the consensus engines and the root package under
#      -race at GOMAXPROCS 1, 2 and 4 (-cpu 1,2,4), so a 1-CPU run
#      is never the only evidence for the code that runs in production,
#  13. the fuzz gate: each batch frame codec's native fuzz target
#      (internal/service/frame_fuzz_test.go — no panic on any frame,
#      append→parse identity) run for a fixed 10s of fresh inputs; the
#      seed corpus already runs in every plain go test pass above.
#
# A change is green only if all thirteen pass.
set -eu
cd "$(dirname "$0")/.."

echo "==> build + vet + importer check"
go build ./...
go vet ./...
# Each line of the listing is "package import import ..." (non-test
# files only), so an import seen here is an import from production code.
imports="$(go list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}' ./...)"
printf '%s\n' "$imports" | awk -v internal="$(go list -m)/internal/" '
{
	pkgs[$1] = 1
	for (i = 2; i <= NF; i++) {
		if ($i == "testing")
			support[$1] = 1
		else
			imported[$i] = 1
	}
}
END {
	bad = 0
	for (p in pkgs)
		if (index(p, internal) == 1 && !(p in support) && !(p in imported)) {
			print "importer check: no non-test package imports " p
			bad = 1
		}
	exit bad
}'

echo "==> test (release: no handle validation)"
go test ./...

echo "==> test (-tags debughandles: full handle validation)"
go vet -tags debughandles ./...
go test -tags debughandles ./...

echo "==> race (release)"
go test -race -short ./...

echo "==> race (-tags debughandles)"
go test -race -short -tags debughandles ./...

echo "==> leak gate (quiescent accounting under -race)"
go test -race -tags debughandles \
	-run 'TestHandleChurnQuiescent|TestBatchChurnQuiescent|TestTurnCloseDrainsRetireBacklog|TestAutoQueueCloseRace|TestBenchQuiescentSmoke' .

echo "==> bench smoke"
BENCH_OUT="$(mktemp -d)"
sh scripts/bench.sh smoke "$BENCH_OUT" >/dev/null
rm -rf "$BENCH_OUT"

echo "==> chaos gate (fault points under -race)"
go vet -tags "faultpoints debughandles" ./...
go test -race -tags faultpoints -timeout 120s ./internal/inject
go test -race -tags "faultpoints debughandles" -timeout 240s \
	-run 'TestChaos|TestLaggingProducerBlocksConsumer|TestVerifyQuiescentReportsStrandedSlots' \
	. ./internal/mpsc
go test -race -tags faultpoints -timeout 240s \
	./internal/consensus ./internal/turnplus
go run -tags faultpoints ./cmd/chaos -scenario fastpath -workers 4 -ops 500 -segsize 8 -batch 3

echo "==> sharded/lease gate (lease lifecycle + shard isolation under -race)"
go test -race -tags "faultpoints debughandles" -timeout 240s \
	-run 'TestLeaseChurnQuiescent|TestLeaseExpiryDrainsRetireBacklog|TestLeaseShardedExpiryDrainsEveryShard|TestChaosShardStall|TestChaosShardedRelaxedUnderDelayInjection' .
go run -tags faultpoints ./cmd/chaos -scenario shard -workers 4 -ops 500 -shards 4

echo "==> reclamation-backend gate (4-way conformance + parked-reader chaos under -race)"
go test -race -tags "faultpoints debughandles" -timeout 240s ./internal/reclaim
go test -race -tags "faultpoints debughandles" -timeout 240s \
	-run 'TestConformance|TestHoldStatsSplitsHoldoutReasons|TestBacklogBoundSaturation' \
	./internal/hazard ./internal/epoch ./internal/qsbr ./internal/eras
go test -race -tags "faultpoints debughandles" -timeout 240s \
	-run 'TestSlotChurnStress' ./internal/core
go test -race -tags "faultpoints debughandles" -timeout 240s \
	-run 'TestBackendChurnMatrix' ./internal/turnplus
go test -race -tags "faultpoints debughandles" -timeout 240s \
	-run 'TestChaosStalledReaderFourBackends|TestChaosStalledReaderEpochVsHazard|TestEpochReleasedSlotResidueNotStranded' .

echo "==> service gate (queue-as-a-service chaos under -race)"
go test -race -timeout 240s ./internal/account ./internal/vars
go test -race -tags "faultpoints debughandles" -timeout 240s \
	./internal/service

echo "==> batched-service gate (batch wire path + SvcBatchLease chaos under -race)"
go test -race -tags "faultpoints debughandles" -timeout 240s \
	-run 'TestFrameRoundTrips|TestFrameHostilePayloadLength|TestBatch|TestAckBatchStaleTokens|TestQuotaAdmitN|TestQuotaRefundN|TestServiceChaosBatchLeaseRedelivery|TestServiceChaosCrashedBatchConsumer|TestLeaseTokensGloballyUnique|TestConsumeBatch|TestClientChunksOversizeBatches' \
	./internal/service ./internal/account

echo "==> multi-CPU pass (-race at GOMAXPROCS 1, 2, 4)"
# Kogan-Petrank and the packages that drive it (the root package,
# internal/bench) joined once its double-consume bug was fixed; it
# failed at every run with more than one CPU before.
go test -race -cpu 1,2,4 -tags "faultpoints debughandles" -timeout 400s \
	./internal/turnplus ./internal/sharded ./internal/service \
	./internal/kpq ./internal/consensus \
	. ./internal/bench

echo "==> fuzz gate (frame codecs, 10s per target)"
for target in FuzzParseProduceBatch FuzzParseIDs FuzzParseDeliveries FuzzParseAckBatch FuzzParseAckResults; do
	go test -run '^$' -fuzz "^${target}\$" -fuzztime=10s ./internal/service
done

echo "==> ci green"
