package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if len(cfg.Topics) == 0 {
		cfg.Topics = []string{"t"}
	}
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = 8
	}
	if cfg.Lease == 0 {
		cfg.Lease = time.Minute // tests drive sweep() by hand
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func startServer(t *testing.T, s *Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ConnContext = s.ConnContext
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// TestRoundTrip: produce → consume → ack over real HTTP, then a clean
// drain ending in VerifyQuiescent.
func TestRoundTrip(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"orders"}})
	ts := startServer(t, s)
	c := &Client{Base: ts.URL, Tenant: "acme"}
	ctx := context.Background()

	const n = 200
	ids := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		id, err := c.Produce(ctx, "orders", []byte(fmt.Sprintf("msg-%d", i)))
		if err != nil {
			t.Fatalf("produce %d: %v", i, err)
		}
		ids[id] = true
	}
	for i := 0; i < n; i++ {
		d, err := c.Consume(ctx, "orders")
		if err != nil {
			t.Fatalf("consume %d: %v", i, err)
		}
		if d == nil {
			t.Fatalf("consume %d: empty with %d messages outstanding", i, n-i)
		}
		if !ids[d.ID] {
			t.Fatalf("consumed unknown or duplicate id %d", d.ID)
		}
		delete(ids, d.ID)
		if err := c.Ack(ctx, "orders", d.ID, d.Token); err != nil {
			t.Fatalf("ack %d: %v", d.ID, err)
		}
	}
	if d, err := c.Consume(ctx, "orders"); err != nil || d != nil {
		t.Fatalf("topic should be empty, got d=%v err=%v", d, err)
	}

	st := s.Topic("orders").Stats()
	if st.Produced != n || st.Consumed != n || st.Acked != n {
		t.Fatalf("counters produced/consumed/acked = %d/%d/%d, want %d each", st.Produced, st.Consumed, st.Acked, n)
	}
	if st.Outstanding != 0 {
		t.Fatalf("outstanding = %d after full ack, want 0", st.Outstanding)
	}

	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	rep, err := s.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Undelivered["orders"] != 0 {
		t.Fatalf("undelivered = %d, want 0", rep.Undelivered["orders"])
	}
}

// TestQuota429: a tenant past its burst gets 429 + Retry-After, and a
// different tenant is unaffected.
func TestQuota429(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}, QuotaRate: 1, QuotaBurst: 3})
	ts := startServer(t, s)
	ctx := context.Background()

	// Raw requests (no retry) to observe the 429 itself.
	raw := func(tenant string) int {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/topics/t/produce", nil)
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		return resp.StatusCode
	}
	got := map[int]int{}
	for i := 0; i < 10; i++ {
		got[raw("greedy")]++
	}
	if got[http.StatusOK] != 3 || got[http.StatusTooManyRequests] != 7 {
		t.Fatalf("greedy tenant statuses = %v, want 3x200 + 7x429", got)
	}
	if code := raw("polite"); code != http.StatusOK {
		t.Fatalf("other tenant got %d, want 200: quota not isolated", code)
	}
	if st := s.Stats(); st.ShedQuota != 7 {
		t.Fatalf("shed_quota = %d, want 7", st.ShedQuota)
	}
}

// TestTenantValidationAndCap: a hostile X-Tenant header can neither put
// arbitrary strings in the registry (400) nor grow it without bound
// (429 once MaxTenants distinct names are tracked).
func TestTenantValidationAndCap(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}, QuotaRate: 1000, QuotaBurst: 100, MaxTenants: 2})
	ts := startServer(t, s)
	ctx := context.Background()

	raw := func(tenant string) int {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/topics/t/produce", nil)
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, bad := range []string{"sp ace", "semi;colon", "a\tb", strings.Repeat("x", 65)} {
		if code := raw(bad); code != http.StatusBadRequest {
			t.Fatalf("tenant %q got %d, want 400", bad, code)
		}
	}
	if code := raw("a"); code != http.StatusOK {
		t.Fatalf("tenant a got %d, want 200", code)
	}
	if code := raw("b"); code != http.StatusOK {
		t.Fatalf("tenant b got %d, want 200", code)
	}
	// The registry is full: unseen tenants are refused, known ones work.
	if code := raw("c"); code != http.StatusTooManyRequests {
		t.Fatalf("tenant c past MaxTenants=2 got %d, want 429", code)
	}
	if code := raw("a"); code != http.StatusOK {
		t.Fatalf("known tenant a at the cap got %d, want 200", code)
	}
	if st := s.Stats(); st.ShedTenant != 5 {
		t.Fatalf("shed_tenant = %d, want 5 (4 invalid + 1 over cap)", st.ShedTenant)
	}
	if st := s.Stats(); len(st.Tenants) != 2 {
		t.Fatalf("stats enumerate %d tenants, want 2", len(st.Tenants))
	}
}

// TestClientRetriesThroughQuota: the backoff client rides out a 429 and
// eventually lands the request.
func TestClientRetriesThroughQuota(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}, QuotaRate: 50, QuotaBurst: 1})
	ts := startServer(t, s)
	c := &Client{Base: ts.URL, Tenant: "x",
		Backoff: Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, Seed: 7}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := c.Produce(ctx, "t", []byte("x")); err != nil {
			t.Fatalf("produce %d through quota: %v", i, err)
		}
	}
	if c.Retries == 0 {
		t.Fatal("client never backed off: burst=1 at 5 rapid produces must shed")
	}
}

// TestRedelivery drives the lease state machine directly with an
// explicit clock: unacked past deadline → redelivered with a new token;
// the old token's ack → conflict; the new ack → ok and never again.
func TestRedelivery(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}, Lease: 100 * time.Millisecond})
	topic := s.Topic("t")
	now := time.Unix(2000, 0)

	produceOne(topic, []byte("payload"))
	d1, ok := consumeOne(topic, now)
	if !ok {
		t.Fatal("consume: topic empty")
	}

	// Before the deadline the sweeper must not touch it.
	if n := topic.sweep(now.Add(50 * time.Millisecond)); n != 0 {
		t.Fatalf("sweep inside lease redelivered %d", n)
	}
	// Past the deadline: exactly one redelivery, even across repeated sweeps.
	late := now.Add(200 * time.Millisecond)
	if n := topic.sweep(late); n != 1 {
		t.Fatalf("sweep past lease redelivered %d, want 1", n)
	}
	if n := topic.sweep(late); n != 0 {
		t.Fatalf("second sweep redelivered %d more, want 0 (exactly-once)", n)
	}

	// The crashed consumer's late ack must not count.
	if res := ackOne(topic, d1.ID, d1.Token); res != AckConflict {
		t.Fatalf("stale ack = %v, want AckConflict", res)
	}

	d2, ok := consumeOne(topic, late)
	if !ok {
		t.Fatal("re-consume: topic empty")
	}
	if d2.ID != d1.ID {
		t.Fatalf("redelivered id %d, want original %d", d2.ID, d1.ID)
	}
	if d2.Token == d1.Token {
		t.Fatal("redelivery reused the lease token: stale acks would land")
	}
	if string(d2.Payload) != "payload" {
		t.Fatalf("payload corrupted across redelivery: %q", d2.Payload)
	}
	if res := ackOne(topic, d2.ID, d2.Token); res != AckOK {
		t.Fatalf("fresh ack = %v, want AckOK", res)
	}
	if res := ackOne(topic, d2.ID, d2.Token); res != AckUnknown {
		t.Fatalf("double ack = %v, want AckUnknown (record removed)", res)
	}
	if st := topic.Stats(); st.Redelivered != 1 || st.Acked != 1 || st.Conflicts != 1 {
		t.Fatalf("stats = %+v, want redelivered=1 acked=1 conflicts=1", st)
	}
}

// TestAckBeatsSweeper: an ack that lands between lease expiry and the
// sweeper's claim wins; the message is not redelivered.
func TestAckBeatsSweeper(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}, Lease: 10 * time.Millisecond})
	topic := s.Topic("t")
	now := time.Unix(2000, 0)
	produceOne(topic, []byte("x"))
	d, _ := consumeOne(topic, now)
	if res := ackOne(topic, d.ID, d.Token); res != AckOK {
		t.Fatalf("ack = %v", res)
	}
	if n := topic.sweep(now.Add(time.Hour)); n != 0 {
		t.Fatalf("sweeper redelivered an acked message (%d)", n)
	}
}

// TestDrainRejectsAndVerifies: after Drain every request is 503 and the
// undelivered residue is reported.
func TestDrainRejectsAndVerifies(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}})
	ts := startServer(t, s)
	c := &Client{Base: ts.URL, MaxAttempts: 1}
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		if _, err := c.Produce(ctx, "t", []byte("x")); err != nil {
			t.Fatalf("produce: %v", err)
		}
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	rep, err := s.Drain(dctx)
	if err != nil {
		t.Fatalf("drain with queued residue: %v", err)
	}
	if rep.Undelivered["t"] != 10 {
		t.Fatalf("undelivered = %d, want 10", rep.Undelivered["t"])
	}
	if rep.Unacked["t"] != 0 {
		t.Fatalf("unacked = %d, want 0 (nothing was consumed)", rep.Unacked["t"])
	}
	if _, err := c.Produce(ctx, "t", []byte("x")); !errors.Is(err, ErrShed) {
		t.Fatalf("produce after drain: %v, want ErrShed (503)", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained = %d, want 503", resp.StatusCode)
	}
}

// TestDrainReportsUnacked: a delivery leased but never acked at
// shutdown shows up in the report's Unacked count instead of vanishing.
func TestDrainReportsUnacked(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}})
	topic := s.Topic("t")
	now := time.Unix(2000, 0)
	produceOne(topic, []byte("kept"))
	produceOne(topic, []byte("left queued"))
	if _, ok := consumeOne(topic, now); !ok {
		t.Fatal("consume: topic empty")
	}
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := s.Drain(dctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Undelivered["t"] != 1 || rep.Unacked["t"] != 1 {
		t.Fatalf("undelivered/unacked = %d/%d, want 1/1", rep.Undelivered["t"], rep.Unacked["t"])
	}
}

// TestAckDuringClose: once the topic is closing, the sweeper leaves
// expired leases alone, so a consumer's last-instant ack lands instead
// of bouncing off a claim that would only be reverted (spurious 409).
func TestAckDuringClose(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}, Lease: 10 * time.Millisecond})
	topic := s.Topic("t")
	now := time.Unix(2000, 0)
	produceOne(topic, []byte("x"))
	d, _ := consumeOne(topic, now)
	topic.closing.Store(true)
	if n := topic.sweep(now.Add(time.Hour)); n != 0 {
		t.Fatalf("closing sweep redelivered %d, want 0", n)
	}
	if res := ackOne(topic, d.ID, d.Token); res != AckOK {
		t.Fatalf("ack while closing = %v, want AckOK", res)
	}
}

// TestBreaker drives the valve with a synthetic pressure source.
func TestBreaker(t *testing.T) {
	var backlog, bound = 0, 100
	bounded := true
	var mu sync.Mutex
	br := newBreaker(func() (int, int, bool) {
		mu.Lock()
		defer mu.Unlock()
		return backlog, bound, bounded
	}, 90, 45, time.Nanosecond)

	now := time.Unix(3000, 0)
	step := func(i int) time.Time { return now.Add(time.Duration(i) * time.Millisecond) }
	set := func(b int, ok bool) {
		mu.Lock()
		backlog, bounded = b, ok
		mu.Unlock()
	}

	if !br.allow(step(0)) {
		t.Fatal("breaker open at zero pressure")
	}
	set(95, true)
	if br.allow(step(1)) {
		t.Fatal("breaker closed at 95% of bound (open threshold 90%)")
	}
	// Hysteresis: falling to 60% (between close=45 and open=90) stays open.
	set(60, true)
	if br.allow(step(2)) {
		t.Fatal("breaker closed at 60%: hysteresis must hold until 45%")
	}
	set(40, true)
	if !br.allow(step(3)) {
		t.Fatal("breaker still open at 40% (close threshold 45%)")
	}
	// Unbounded backend: the valve must never open (nothing to defend).
	set(1<<30, false)
	if !br.allow(step(4)) {
		t.Fatal("breaker opened on an unbounded backend")
	}
	if br.trips.Load() != 1 {
		t.Fatalf("trips = %d, want 1", br.trips.Load())
	}
}

// TestBackoffDeterministicAndBounded: same seed → same schedule;
// Retry-After is a floor; Max is a ceiling.
func TestBackoffDeterministic(t *testing.T) {
	a := Backoff{Base: 4 * time.Millisecond, Max: 64 * time.Millisecond, Seed: 42}
	b := Backoff{Base: 4 * time.Millisecond, Max: 64 * time.Millisecond, Seed: 42}
	other := Backoff{Base: 4 * time.Millisecond, Max: 64 * time.Millisecond, Seed: 43}
	differs := false
	for i := 0; i < 12; i++ {
		da, db := a.Delay(i, 0), b.Delay(i, 0)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v vs %v", i, da, db)
		}
		if da != other.Delay(i, 0) {
			differs = true
		}
		window := 4 * time.Millisecond << uint(i)
		if window > 64*time.Millisecond || window <= 0 {
			window = 64 * time.Millisecond
		}
		if da < window/2 || da > window {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, da, window/2, window)
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical schedules")
	}
	if d := a.Delay(0, 500*time.Millisecond); d < 500*time.Millisecond {
		t.Fatalf("Retry-After floor ignored: %v", d)
	}
}

// TestConnInFlightCap: a single connection pipelining more than the cap
// is shed with 429 while separate connections are fine. Exercised
// directly against connState (HTTP/1.1 serializes per-conn requests, so
// the HTTP path can't overlap them without h2).
func TestConnInFlightCap(t *testing.T) {
	cs := &connState{max: 2}
	if !cs.enter() || !cs.enter() {
		t.Fatal("enter under cap refused")
	}
	if cs.enter() {
		t.Fatal("third enter allowed past cap=2")
	}
	cs.exit()
	if !cs.enter() {
		t.Fatal("enter after exit refused")
	}
	// Disabled cap admits everything.
	free := &connState{max: 0}
	for i := 0; i < 100; i++ {
		if !free.enter() {
			t.Fatal("uncapped connState refused")
		}
	}
}

// TestConcurrentProduceConsumeAck runs the full service under concurrent
// clients (in-process HTTP) and checks exactly-once accounting.
func TestConcurrentProduceConsumeAck(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}, MaxThreads: 16})
	ts := startServer(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const producers, perProducer = 4, 100
	const total = producers * perProducer
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := &Client{Base: ts.URL, Tenant: fmt.Sprintf("p%d", p)}
			for i := 0; i < perProducer; i++ {
				if _, err := c.Produce(ctx, "t", []byte{byte(p), byte(i)}); err != nil {
					t.Errorf("produce: %v", err)
					return
				}
			}
		}(p)
	}
	var seen sync.Map
	var consumed int64
	var cmu sync.Mutex
	var cwg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		cwg.Add(1)
		go func(w int) {
			defer cwg.Done()
			c := &Client{Base: ts.URL, Tenant: fmt.Sprintf("c%d", w)}
			for {
				select {
				case <-done:
					return
				default:
				}
				d, err := c.Consume(ctx, "t")
				if err != nil || d == nil {
					continue
				}
				if _, dup := seen.LoadOrStore(d.ID, w); dup {
					t.Errorf("id %d delivered twice with acks in time", d.ID)
				}
				if err := c.Ack(ctx, "t", d.ID, d.Token); err != nil {
					t.Errorf("ack: %v", err)
				}
				cmu.Lock()
				consumed++
				if consumed == total {
					close(done)
				}
				cmu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatalf("timed out: consumed %d/%d", consumed, total)
	}
	cwg.Wait()
	if err := func() error {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := s.Drain(dctx)
		return err
	}(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
