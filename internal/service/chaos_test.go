//go:build faultpoints

package service

// Service-level chaos: the paper's guarantees, asserted end-to-end
// through the HTTP surface rather than against a queue in isolation.
//
//   - parked reader → the per-topic reclaim backlog stays within the
//     backend's structural Bound() for the bounded backends (hazard,
//     eras) while healthy traffic churns — §3's fault-resilience claim
//     at service level;
//   - crashed consumer (between dequeue and ack) → every message is
//     still delivered and acked exactly once, with the crash count
//     visible as requeues — a lincheck-style history check over the
//     service's produce/consume/ack events;
//   - slow reader → an expired lease is redelivered to a healthy
//     consumer exactly once and the slow reader's late ack is refused;
//   - stalled connection → a connection parked mid-response holds no
//     queue resources and healthy tenants keep completing;
//   - graceful drain after all of the above ends in VerifyQuiescent.
//
// Victim targeting follows the repo discipline: arm the point with a
// one-claim policy, park the designated victim, WaitStalled, disarm,
// then start healthy traffic. Seeded delay policies (CHAOS_SEED) jitter
// the schedules; failures log the seed for replay.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"turnqueue"
	"turnqueue/internal/inject"
)

func chaosSeed(t *testing.T) uint64 {
	seed := uint64(0x5eedc0de)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos seed %#x (replay: CHAOS_SEED=%#x)", seed, seed)
	return seed
}

// parkVictim arms point with a one-claim stall, runs op on a fresh
// goroutine until it parks, then disarms so later arrivals pass.
func parkVictim(t *testing.T, point inject.Point, op func()) <-chan struct{} {
	t.Helper()
	inject.Arm(point, inject.Stall(1))
	done := make(chan struct{})
	go func() {
		defer close(done)
		op()
	}()
	if got := inject.WaitStalled(1, 10*time.Second); got < 1 {
		t.Fatalf("victim never parked at %v (stalled=%d)", point, got)
	}
	inject.Disarm(point)
	return done
}

func awaitOrFatal(t *testing.T, ch <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(d):
		t.Fatalf("%s did not complete within %v", what, d)
	}
}

func drainOK(t *testing.T, s *Service) DrainReport {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rep, err := s.Drain(ctx)
	if err != nil {
		t.Fatalf("drain/VerifyQuiescent: %v", err)
	}
	return rep
}

// TestServiceChaosParkedReaderBoundedBacklog parks one consume request
// inside the backend's reservation window (HazardProtect — the uniform
// read-side point across backends), then churns produce/consume/ack
// traffic through HTTP and samples the topic's reclaim pressure
// throughout. The claim under test is the service-level restatement of
// §3: with a reader parked, the topic's backlog never exceeds the
// backend's Bound(). For hazard the bound is structural; for eras the
// mid-run plateau is *not* a closed form (see eras.BacklogBound), and it
// is the breaker — shedding produce at 75% of the bound — that keeps the
// service inside the envelope. Shed produces are therefore the designed
// degradation, counted rather than failed, and the drain after release
// must still verify quiescent with zero overruns.
func TestServiceChaosParkedReaderBoundedBacklog(t *testing.T) {
	for _, backend := range []turnqueue.Reclaimer{turnqueue.ReclaimerHazard, turnqueue.ReclaimerEras} {
		t.Run(string(backend), func(t *testing.T) {
			t.Cleanup(inject.Reset)
			s := newTestService(t, Config{
				Topics:     []string{"t"},
				MaxThreads: 8,
				// Quotas off: under test the breaker fast-fails produce
				// bursts, so the worker loops legitimately spin past the
				// default per-tenant rate — a quota 429 here would fail
				// the run on a mechanism this test is not about.
				QuotaRate: -1,
				// One shard and small segments: the parked reader's
				// protection and the churn share a ring chain, and the
				// bursts wrap whole segments, so rings actually retire and
				// the backlog-vs-bound assertion bites (a 1-in-1-out trickle
				// never drains a segment and would assert nothing).
				Shards:      1,
				SegmentSize: 16,
				Reclaimer:   backend,
				// Open well short of the bound: retires already in flight
				// (drained segments marching past the pinned ring) keep
				// landing after the valve closes, so the margin between
				// openPct and 100% is what absorbs them.
				BreakerOpenPct:  75,
				BreakerClosePct: 40,
				BreakerEvery:    200 * time.Microsecond,
			})
			ts := startServer(t, s)
			// Registered after startServer so it runs before the server's
			// Close cleanup: a parked victim connection would otherwise
			// wedge httptest.Server.Close if the test fails early.
			t.Cleanup(inject.ReleaseStalled)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			pre := &Client{Base: ts.URL, Tenant: "pre"}
			// Pre-fill so the victim's protection lands on a ring with
			// traffic behind it — the ring the churn will march past and
			// retire while the victim pins it.
			for i := 0; i < 4; i++ {
				if _, err := pre.Produce(ctx, "t", []byte("pre")); err != nil {
					t.Fatalf("pre-fill: %v", err)
				}
			}

			// Park the victim reader: a consume stalls inside its
			// head-protection window, holding its reservation — the dead
			// reader §3 budgets for.
			victimDone := parkVictim(t, inject.HazardProtect, func() {
				resp, err := http.Post(ts.URL+"/topics/t/consume", "", nil)
				if err == nil {
					drainClose(resp)
				}
			})

			topic := s.Topic("t")
			if _, bound, bounded := topic.Pressure(); !bounded || bound <= 0 {
				t.Fatalf("backend %s reports unbounded pressure (bound=%d)", backend, bound)
			}

			const workers, rounds, burst = 3, 20, 32
			var wg sync.WaitGroup
			var maxBacklog, sheds atomic64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// One attempt, no backoff: while the victim pins the
					// backlog the breaker stays latched open (nothing can
					// drain below closePct), so retrying produce is futile
					// by construction — count the shed and move on. The
					// retry/backoff path has its own test.
					c := &Client{Base: ts.URL, Tenant: fmt.Sprintf("w%d", w), MaxAttempts: 1}
					for r := 0; r < rounds; r++ {
						for i := 0; i < burst; i++ {
							if _, err := c.Produce(ctx, "t", []byte{byte(i)}); err != nil {
								if errors.Is(err, ErrShed) {
									// The breaker holding the line near the
									// bound is the degradation under test,
									// not a failure.
									sheds.add(1)
									continue
								}
								t.Errorf("produce: %v", err)
								return
							}
						}
						for i := 0; i < burst; i++ {
							d, err := c.Consume(ctx, "t")
							if err != nil {
								t.Errorf("consume: %v", err)
								return
							}
							if d != nil {
								if err := c.Ack(ctx, "t", d.ID, d.Token); err != nil {
									t.Errorf("ack: %v", err)
									return
								}
							}
							backlog, bound, bounded := topic.Pressure()
							maxBacklog.max(int64(backlog))
							if bounded && backlog > bound {
								t.Errorf("reclaim backlog %d exceeded bound %d with a reader parked", backlog, bound)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// Drain the pre-fill remainder so the test's own residue is zero.
			for {
				d, err := pre.Consume(ctx, "t")
				if err != nil {
					t.Fatalf("drain consume: %v", err)
				}
				if d == nil {
					break
				}
				if err := pre.Ack(ctx, "t", d.ID, d.Token); err != nil {
					t.Fatalf("drain ack: %v", err)
				}
			}
			_, bound, _ := topic.Pressure()
			if maxBacklog.load() == 0 {
				t.Fatalf("backend %s: backlog never rose above zero — the parked reader pinned nothing, the bound was not exercised", backend)
			}
			t.Logf("backend %s: max backlog %d within bound %d under parked reader (%d produces shed by breaker)",
				backend, maxBacklog.load(), bound, sheds.load())

			inject.ReleaseStalled()
			awaitOrFatal(t, victimDone, 10*time.Second, "released victim request")
			drainOK(t, s)
		})
	}
}

// atomic64 is a tiny max-tracking atomic (sync/atomic.Int64 wrapper
// kept local to the chaos file).
type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) max(x int64) {
	a.mu.Lock()
	if x > a.v {
		a.v = x
	}
	a.mu.Unlock()
}
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// event is one entry of the service-level history the crash test
// validates: which consumer saw which delivery, and whether its ack
// landed.
type event struct {
	consumer int
	id       uint64
	token    uint64
	acked    bool
}

// TestServiceChaosCrashedConsumerExactlyOnce crashes consumers in the
// dequeue→ack window (SvcConsumerCrash) under seeded delay injection on
// the response paths, and validates the full event history: every
// produced message acked exactly once, zero lost, zero duplicated, with
// the crashes visible as requeues.
func TestServiceChaosCrashedConsumerExactlyOnce(t *testing.T) {
	t.Cleanup(inject.Reset)
	seed := chaosSeed(t)
	s := newTestService(t, Config{
		Topics:     []string{"t"},
		MaxThreads: 8,
		Lease:      time.Minute, // no expiry: redelivery here comes from crashes only
	})
	ts := startServer(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const crashes = 5
	const producers, perProducer = 3, 60
	const total = producers * perProducer

	// The first `crashes` consume requests die between Dequeue and the
	// lease commit; the handler's recovery must requeue each message.
	inject.Arm(inject.SvcConsumerCrash, inject.Crash(crashes))
	// Seeded jitter on both response paths widens the interleavings the
	// history check sees.
	inject.Arm(inject.SvcConnStall, inject.Delay(seed, 0, 200*time.Microsecond))
	inject.Arm(inject.SvcSlowReader, inject.Delay(seed+1, 0, 200*time.Microsecond))

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := &Client{Base: ts.URL, Tenant: fmt.Sprintf("p%d", p)}
			for i := 0; i < perProducer; i++ {
				if _, err := c.Produce(ctx, "t", []byte(fmt.Sprintf("%d-%d", p, i))); err != nil {
					t.Errorf("produce: %v", err)
					return
				}
			}
		}(p)
	}

	histories := make([][]event, 4)
	var crashed500 atomic64
	var ackedTotal atomic64
	done := make(chan struct{})
	var once sync.Once
	var cwg sync.WaitGroup
	for w := 0; w < len(histories); w++ {
		cwg.Add(1)
		go func(w int) {
			defer cwg.Done()
			c := &Client{Base: ts.URL, Tenant: fmt.Sprintf("c%d", w)}
			for {
				select {
				case <-done:
					return
				case <-ctx.Done():
					return
				default:
				}
				d, err := c.Consume(ctx, "t")
				if err != nil {
					if strings.Contains(err.Error(), "simulated thread crash") {
						crashed500.add(1)
					}
					continue
				}
				if d == nil {
					continue
				}
				ackErr := c.Ack(ctx, "t", d.ID, d.Token)
				ok := ackErr == nil
				if !ok && ackErr != ErrConflict {
					t.Errorf("ack: %v", ackErr)
				}
				histories[w] = append(histories[w], event{consumer: w, id: d.ID, token: d.Token, acked: ok})
				if ok && ackedTotal.add(1) == total {
					once.Do(func() { close(done) })
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatalf("timed out: acked %d/%d", ackedTotal.load(), total)
	}
	cwg.Wait()

	// History check: exactly-once at the ack level.
	ackCount := make(map[uint64]int)
	leaseSeen := make(map[uint64]map[uint64]bool) // id → tokens seen
	for _, h := range histories {
		for _, e := range h {
			if e.acked {
				ackCount[e.id]++
			}
			if leaseSeen[e.id] == nil {
				leaseSeen[e.id] = map[uint64]bool{}
			}
			if leaseSeen[e.id][e.token] {
				t.Errorf("id %d: lease token %d delivered to two consumers", e.id, e.token)
			}
			leaseSeen[e.id][e.token] = true
		}
	}
	if len(ackCount) != total {
		t.Fatalf("acked %d distinct messages, want %d (lost %d)", len(ackCount), total, total-len(ackCount))
	}
	for id, n := range ackCount {
		if n != 1 {
			t.Fatalf("id %d acked %d times, want exactly once", id, n)
		}
	}
	st := s.Topic("t").Stats()
	if st.Requeued != crashes {
		t.Errorf("requeued = %d, want %d (one per crashed consumer)", st.Requeued, crashes)
	}
	if crashed500.load() != crashes {
		t.Errorf("clients saw %d crash responses, want %d", crashed500.load(), crashes)
	}
	drainOK(t, s)
}

// TestServiceChaosCrashedBatchConsumer crashes a consume-batch between
// its DequeueBatch and the first lease grant (SvcConsumerCrash): the
// request answers 500, refunds every slot it charged, and puts every
// dequeued id back, so each message is later delivered exactly once.
func TestServiceChaosCrashedBatchConsumer(t *testing.T) {
	t.Cleanup(inject.Reset)
	const k, burst = 8, 2 * 8
	// Rate 1/s: a tenant's bucket is its burst for the test's duration.
	// The producer spends k tokens on produce-batch and k on ack-batch;
	// the consumer's max=burst polls each need the whole bucket, so the
	// healthy poll after the crash is admitted only if the crash refunded.
	s := newTestService(t, Config{Topics: []string{"t"}, MaxThreads: 8, QuotaRate: 1, QuotaBurst: burst})
	ts := startServer(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	prod := &Client{Base: ts.URL, Tenant: "prod", MaxAttempts: 1}
	cons := &Client{Base: ts.URL, Tenant: "cons", MaxAttempts: 1}

	payloads := make([][]byte, k)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("crash-%d", i))
	}
	ids, err := prod.ProduceBatch(ctx, "t", payloads)
	if err != nil || len(ids) != k {
		t.Fatalf("produce-batch: %d ids, err %v", len(ids), err)
	}

	inject.Arm(inject.SvcConsumerCrash, inject.Crash(1))
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/topics/t/consume-batch?max="+strconv.Itoa(burst), nil)
	req.Header.Set("X-Tenant", "cons")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("crashed consume-batch: %v", err)
	}
	drainClose(resp)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("crashed consume-batch status %d, want 500", resp.StatusCode)
	}
	inject.Disarm(inject.SvcConsumerCrash)
	requeued := s.Topic("t").Stats().Requeued
	if requeued < 1 || requeued > k {
		t.Fatalf("requeued = %d, want the crashed batch's dequeued ids (1..%d)", requeued, k)
	}

	seen := map[uint64]bool{}
	var acks []AckEntry
	for len(seen) < k {
		ds, err := cons.ConsumeBatch(ctx, "t", burst, 0)
		if err != nil {
			t.Fatalf("consume-batch after crash: %v (crashed slots never refunded?)", err)
		}
		if len(ds) == 0 {
			t.Fatalf("topic empty with %d of %d delivered: the crash lost messages", len(seen), k)
		}
		for _, d := range ds {
			if seen[d.ID] {
				t.Fatalf("id %d delivered twice", d.ID)
			}
			seen[d.ID] = true
			acks = append(acks, AckEntry{ID: d.ID, Token: d.Token})
		}
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("produced id %d never delivered", id)
		}
	}
	res, err := prod.AckBatch(ctx, "t", acks)
	if err != nil {
		t.Fatalf("ack-batch: %v", err)
	}
	for i, r := range res {
		if r != AckOK {
			t.Fatalf("ack %d = %v, want AckOK", i, r)
		}
	}
	if st := s.Topic("t").Stats(); st.Acked != k || st.Consumed != k {
		t.Fatalf("acked/consumed = %d/%d, want %d each (no lease from the crashed batch)", st.Acked, st.Consumed, k)
	}
	drainOK(t, s)
}

func (a *atomic64) add(x int64) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.v += x
	return a.v
}

// TestServiceChaosSlowReaderRedelivery parks a consumer after its lease
// commit (SvcSlowReader): the lease expires while it is parked, the
// sweeper redelivers to a healthy consumer exactly once, and the slow
// reader's eventual ack is refused with a conflict.
func TestServiceChaosSlowReaderRedelivery(t *testing.T) {
	t.Cleanup(inject.Reset)
	s := newTestService(t, Config{
		Topics:     []string{"t"},
		MaxThreads: 8,
		Lease:      50 * time.Millisecond,
		SweepEvery: 10 * time.Millisecond,
	})
	ts := startServer(t, s)
	t.Cleanup(inject.ReleaseStalled) // after startServer: release before Close
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := &Client{Base: ts.URL}

	id, err := c.Produce(ctx, "t", []byte("slow"))
	if err != nil {
		t.Fatalf("produce: %v", err)
	}

	// The victim consume parks between lease commit and response write,
	// holding its lease past the deadline.
	victimDone := parkVictim(t, inject.SvcSlowReader, func() {
		resp, err := http.Post(ts.URL+"/topics/t/consume", "", nil)
		if err == nil {
			drainClose(resp)
		}
	})

	// A healthy consumer receives the redelivery.
	var redelivered *Delivery
	deadline := time.Now().Add(10 * time.Second)
	for redelivered == nil {
		if time.Now().After(deadline) {
			t.Fatal("sweeper never redelivered the parked lease")
		}
		d, err := c.Consume(ctx, "t")
		if err != nil {
			t.Fatalf("consume: %v", err)
		}
		if d != nil {
			redelivered = d
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if redelivered.ID != id {
		t.Fatalf("redelivered id %d, want %d", redelivered.ID, id)
	}
	if err := c.Ack(ctx, "t", redelivered.ID, redelivered.Token); err != nil {
		t.Fatalf("healthy ack: %v", err)
	}
	// The slow reader's stale token (one lease older) must conflict.
	if err := c.Ack(ctx, "t", redelivered.ID, redelivered.Token-1); err != ErrConflict {
		if err == nil {
			t.Fatal("stale ack landed: message double-acked")
		}
		// Record already removed by the successful ack → 404 is also a
		// refusal; both outcomes keep exactly-once.
	}
	st := s.Topic("t").Stats()
	if st.Redelivered != 1 {
		t.Fatalf("redelivered = %d, want exactly 1", st.Redelivered)
	}
	if st.Acked != 1 {
		t.Fatalf("acked = %d, want 1", st.Acked)
	}
	inject.ReleaseStalled()
	awaitOrFatal(t, victimDone, 10*time.Second, "released slow reader")
	drainOK(t, s)
}

// TestServiceChaosConnStallIsolation parks one produce connection
// mid-response (after its enqueue): the parked connection holds no
// queue handle or lease, so healthy tenants keep completing and the
// eventual drain is clean.
func TestServiceChaosConnStallIsolation(t *testing.T) {
	t.Cleanup(inject.Reset)
	s := newTestService(t, Config{Topics: []string{"t"}, MaxThreads: 8})
	ts := startServer(t, s)
	t.Cleanup(inject.ReleaseStalled) // after startServer: release before Close
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	victimDone := parkVictim(t, inject.SvcConnStall, func() {
		resp, err := http.Post(ts.URL+"/topics/t/produce", "", strings.NewReader("victim"))
		if err == nil {
			drainClose(resp)
		}
	})

	// Healthy traffic must be unimpeded: full produce/consume/ack cycles
	// complete while the victim stays parked.
	c := &Client{Base: ts.URL, Tenant: "healthy"}
	start := time.Now()
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := c.Produce(ctx, "t", []byte{byte(i)}); err != nil {
			t.Fatalf("produce %d with a connection parked: %v", i, err)
		}
		d, err := c.Consume(ctx, "t")
		if err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
		if d != nil {
			if err := c.Ack(ctx, "t", d.ID, d.Token); err != nil {
				t.Fatalf("ack: %v", err)
			}
		}
	}
	t.Logf("%d round trips in %v alongside a stalled connection", n, time.Since(start))
	if got := inject.Stalled(); got != 1 {
		t.Fatalf("stalled = %d, want the one victim", got)
	}

	inject.ReleaseStalled()
	awaitOrFatal(t, victimDone, 10*time.Second, "released connection")
	rep := drainOK(t, s)
	// The victim's message was enqueued before its stall (the point sits
	// after Produce) and never consumed — it must surface as undelivered
	// residue, not vanish.
	if rep.Undelivered["t"] != 1 {
		t.Fatalf("undelivered = %d, want 1 (the victim's message)", rep.Undelivered["t"])
	}
}

// TestServiceChaosBatchLeaseRedelivery parks a consume-batch after its
// whole batch of leases is committed (SvcBatchLease) — the batch
// analogue of the slow reader. Every lease in the parked batch expires
// together; the sweeper must redeliver each message exactly once to
// healthy batch consumers, every healthy ack must land, and the parked
// consumer's eventual acks must all be refused.
func TestServiceChaosBatchLeaseRedelivery(t *testing.T) {
	t.Cleanup(inject.Reset)
	s := newTestService(t, Config{
		Topics:     []string{"t"},
		MaxThreads: 8,
		Lease:      50 * time.Millisecond,
		SweepEvery: 10 * time.Millisecond,
	})
	ts := startServer(t, s)
	t.Cleanup(inject.ReleaseStalled) // after startServer: release before Close
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := &Client{Base: ts.URL}

	const k = 8
	payloads := make([][]byte, k)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("batch-%d", i))
	}
	ids, err := c.ProduceBatch(ctx, "t", payloads)
	if err != nil || len(ids) != k {
		t.Fatalf("produce-batch: %d ids, err %v", len(ids), err)
	}
	produced := make(map[uint64]bool, k)
	for _, id := range ids {
		produced[id] = true
	}

	// The victim's batch consume parks with all its leases committed and
	// the response unwritten; its body (ids + tokens) is read only after
	// release.
	var victimBody []byte
	var victimStatus int
	victimDone := parkVictim(t, inject.SvcBatchLease, func() {
		resp, err := http.Post(ts.URL+"/topics/t/consume-batch?max="+strconv.Itoa(k), "", nil)
		if err != nil {
			return
		}
		victimStatus = resp.StatusCode
		victimBody, _ = readBody(resp.Body, nil, maxBatchBody)
		resp.Body.Close()
	})

	// Healthy batch consumers collect every message exactly once as the
	// sweeper returns the parked leases.
	seen := make(map[uint64]uint64, k) // id → healthy token
	deadline := time.Now().Add(15 * time.Second)
	var acks []AckEntry
	for len(seen) < k {
		if time.Now().After(deadline) {
			t.Fatalf("sweeper returned %d of %d parked leases", len(seen), k)
		}
		ds, err := c.ConsumeBatch(ctx, "t", k, 200*time.Millisecond)
		if err != nil {
			t.Fatalf("healthy consume-batch: %v", err)
		}
		for _, d := range ds {
			if !produced[d.ID] {
				t.Fatalf("unknown id %d delivered", d.ID)
			}
			if _, dup := seen[d.ID]; dup {
				t.Fatalf("id %d redelivered twice to healthy consumers", d.ID)
			}
			seen[d.ID] = d.Token
			acks = append(acks, AckEntry{ID: d.ID, Token: d.Token})
		}
	}
	res, err := c.AckBatch(ctx, "t", acks)
	if err != nil {
		t.Fatalf("healthy ack-batch: %v", err)
	}
	for i, r := range res {
		if r != AckOK {
			t.Fatalf("healthy ack %d = %v, want AckOK (sweeper raced the live lease)", i, r)
		}
	}

	inject.ReleaseStalled()
	awaitOrFatal(t, victimDone, 10*time.Second, "released batch victim")

	// The victim's response carries the superseded leases; every one of
	// its acks must be refused — conflict or unknown, never ok.
	if victimStatus != http.StatusOK {
		t.Fatalf("victim consume-batch status %d", victimStatus)
	}
	victimDs, err := parseDeliveries(victimBody)
	if err != nil || len(victimDs) == 0 {
		t.Fatalf("victim response: %d deliveries, err %v", len(victimDs), err)
	}
	stale := make([]AckEntry, len(victimDs))
	for i, d := range victimDs {
		stale[i] = AckEntry{ID: d.ID, Token: d.Token}
	}
	staleRes, err := c.AckBatch(ctx, "t", stale)
	if err != nil {
		t.Fatalf("stale ack-batch: %v", err)
	}
	for i, r := range staleRes {
		if r == AckOK {
			t.Fatalf("victim ack %d landed: message double-acked", i)
		}
	}

	st := s.Topic("t").Stats()
	if st.Acked != k {
		t.Fatalf("acked = %d, want %d", st.Acked, k)
	}
	if st.Redelivered != int64(len(victimDs)) {
		t.Fatalf("redelivered = %d, want %d (one per parked lease)", st.Redelivered, len(victimDs))
	}
	drainOK(t, s)
}
