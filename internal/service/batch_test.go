package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestFrameRoundTrips exercises every frame codec pair, including the
// truncation and hostile-count rejections the handlers rely on.
func TestFrameRoundTrips(t *testing.T) {
	payloads := [][]byte{[]byte("a"), {}, []byte("a longer payload with bytes \x00\xff"), []byte("x")}
	buf := appendProduceBatch(nil, payloads)
	got, err := parseProduceBatch(buf, maxPayload, nil)
	if err != nil {
		t.Fatalf("parseProduceBatch: %v", err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("payload count %d, want %d", len(got), len(payloads))
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("payload %d = %q, want %q", i, got[i], payloads[i])
		}
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := parseProduceBatch(buf[:cut], maxPayload, nil); err == nil {
			t.Fatalf("truncation at %d of %d parsed cleanly", cut, len(buf))
		}
	}

	ids := []uint64{1, 1 << 40, 0, 7}
	rids, err := parseIDs(appendIDs(nil, ids), nil)
	if err != nil || len(rids) != 4 || rids[1] != 1<<40 {
		t.Fatalf("ids round trip = %v, %v", rids, err)
	}

	var dbuf []byte
	dbuf = binary.AppendUvarint(dbuf, 2)
	dbuf = appendDelivery(dbuf, 5, 9, []byte("pay"))
	dbuf = appendDelivery(dbuf, 6, 10, nil)
	ds, err := parseDeliveries(dbuf)
	if err != nil || len(ds) != 2 {
		t.Fatalf("deliveries round trip: %v, %v", ds, err)
	}
	if ds[0].ID != 5 || ds[0].Token != 9 || string(ds[0].Payload) != "pay" || ds[1].ID != 6 {
		t.Fatalf("deliveries decoded wrong: %+v", ds)
	}

	acks := []AckEntry{{ID: 3, Token: 4}, {ID: 8, Token: 1}}
	racks, err := parseAckBatch(appendAckBatch(nil, acks), nil)
	if err != nil || len(racks) != 2 || racks[1] != acks[1] {
		t.Fatalf("acks round trip = %v, %v", racks, err)
	}

	results := []AckResult{AckOK, AckConflict, AckUnknown}
	rres, err := parseAckResults(appendAckResults(nil, results), nil)
	if err != nil || len(rres) != 3 || rres[1] != AckConflict {
		t.Fatalf("results round trip = %v, %v", rres, err)
	}
	if _, err := parseAckResults([]byte{3, 9}, nil); err == nil {
		t.Fatal("out-of-range result byte parsed cleanly")
	}

	// A hostile count must be rejected before it sizes anything.
	huge := binary.AppendUvarint(nil, maxBatchMsgs+1)
	if _, err := parseDeliveries(huge); err == nil {
		t.Fatal("hostile delivery count accepted")
	}
	if _, err := parseProduceBatch(huge, maxPayload, nil); err == nil {
		t.Fatal("hostile payload count accepted")
	}
}

// TestFrameHostilePayloadLength: a payload length at or above 2^63
// would go negative as an int and slip past the truncation arithmetic;
// parseDeliveries must reject it as a malformed frame, not panic.
func TestFrameHostilePayloadLength(t *testing.T) {
	buf := binary.AppendUvarint(nil, 1) // count
	buf = binary.AppendUvarint(buf, 5)  // id
	buf = binary.AppendUvarint(buf, 9)  // token
	buf = binary.AppendUvarint(buf, 1<<63)
	buf = append(buf, "stub"...)
	if _, err := parseDeliveries(buf); err == nil {
		t.Fatal("2^63 payload length parsed cleanly")
	}
	// Same shape just past the buffer end (positive as int, still a lie).
	buf = binary.AppendUvarint(nil, 1)
	buf = binary.AppendUvarint(buf, 5)
	buf = binary.AppendUvarint(buf, 9)
	buf = binary.AppendUvarint(buf, 100)
	buf = append(buf, "short"...)
	if _, err := parseDeliveries(buf); err == nil {
		t.Fatal("over-long payload length parsed cleanly")
	}
}

// TestLeaseTokensGloballyUnique: delivery tokens come from one
// process-global stream, so a token names one lease in the process's
// history and a stale ack can never satisfy a recycled record's CAS.
// Per-topic streams would hand the same numeric token to leases in
// different topics.
func TestLeaseTokensGloballyUnique(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"a", "b"}})
	seen := map[uint64]string{}
	for _, name := range []string{"a", "b"} {
		topic := s.Topic(name)
		produceOne(topic, []byte(name))
		d, ok := consumeOne(topic, time.Now())
		if !ok {
			t.Fatalf("consume %s: topic empty", name)
		}
		if prev, dup := seen[d.Token]; dup {
			t.Fatalf("token %d issued to both topic %s and topic %s", d.Token, prev, name)
		}
		seen[d.Token] = name
	}
}

// TestConsumeBatchRespectsResponseBudget: a consume-batch of large
// payloads must clamp how many leases it grants so the encoded response
// stays within maxBatchBody (the client rejects anything larger — after
// the server committed the leases, which would strand every big batch
// in lease-expiry redelivery). The unleased remainder goes back on the
// queue and arrives in later batches.
func TestConsumeBatchRespectsResponseBudget(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}, QuotaRate: -1})
	ts := startServer(t, s)
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	const total = 12
	want := map[uint64]byte{}
	for b := 0; b < total/4; b++ { // 4 per produce frame keeps requests under maxBatchBody
		payloads := make([][]byte, 4)
		for i := range payloads {
			p := bytes.Repeat([]byte{byte('A' + b*4 + i)}, maxPayload)
			payloads[i] = p
		}
		ids, err := c.ProduceBatch(ctx, "t", payloads)
		if err != nil || len(ids) != 4 {
			t.Fatalf("produce round %d: %d ids, err %v", b, len(ids), err)
		}
		for i, id := range ids {
			want[id] = payloads[i][0]
		}
	}

	got := 0
	for rounds := 0; got < total; rounds++ {
		if rounds > total {
			t.Fatalf("no progress: %d of %d after %d rounds", got, total, rounds)
		}
		ds, err := c.ConsumeBatch(ctx, "t", total, 0)
		if err != nil {
			t.Fatalf("consume-batch: %v", err) // oversize response surfaces here
		}
		if len(ds) == 0 {
			t.Fatalf("empty batch with %d of %d outstanding", total-got, total)
		}
		if len(ds) >= total {
			t.Fatalf("batch of %d × %d bytes was not clamped to the response budget", len(ds), maxPayload)
		}
		acks := make([]AckEntry, len(ds))
		for i, d := range ds {
			if len(d.Payload) != maxPayload || d.Payload[0] != want[d.ID] {
				t.Fatalf("id %d: payload len %d first byte %q, want %q", d.ID, len(d.Payload), d.Payload[0], want[d.ID])
			}
			delete(want, d.ID)
			acks[i] = AckEntry{ID: d.ID, Token: d.Token}
		}
		if _, err := c.AckBatch(ctx, "t", acks); err != nil {
			t.Fatalf("ack-batch: %v", err)
		}
		got += len(ds)
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestConsumeBatchRefundsUnfilledSlots: an empty poll must not keep the
// slot tokens it reserved — at 1 token/s refill, ten empty max=32 polls
// would otherwise burn 320 tokens and starve the same tenant's
// producers into 429s. Single-op /consume is the max=1 case of the same
// path: ten empty ones must leave the bucket full too, so a following
// burst-sized produce is admitted in one attempt.
func TestConsumeBatchRefundsUnfilledSlots(t *testing.T) {
	const burst = 64
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		poll func(c *Client) (int, error)
	}{
		{"batch", func(c *Client) (int, error) {
			ds, err := c.ConsumeBatch(ctx, "t", 32, 0)
			return len(ds), err
		}},
		{"single", func(c *Client) (int, error) {
			d, err := c.Consume(ctx, "t")
			if d != nil {
				return 1, err
			}
			return 0, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestService(t, Config{Topics: []string{"t"}, QuotaRate: 1, QuotaBurst: burst})
			ts := startServer(t, s)
			c := &Client{Base: ts.URL, Tenant: "acme", MaxAttempts: 1}
			for i := 0; i < 10; i++ {
				if n, err := tc.poll(c); err != nil || n != 0 {
					t.Fatalf("empty poll %d: %d deliveries, err %v", i, n, err)
				}
			}
			payloads := make([][]byte, burst)
			for i := range payloads {
				payloads[i] = []byte{byte(i)}
			}
			ids, err := c.ProduceBatch(ctx, "t", payloads)
			if err != nil {
				t.Fatalf("produce after empty polls: %v (unfilled consume slots never refunded?)", err)
			}
			if len(ids) != burst {
				t.Fatalf("produce accepted %d of %d in one attempt", len(ids), burst)
			}
		})
	}
}

// TestClientChunksOversizeBatches: ProduceBatch and AckBatch above the
// per-frame message cap must be split into conforming frames instead of
// sending one frame the server rejects with 400.
func TestClientChunksOversizeBatches(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}, QuotaRate: -1})
	ts := startServer(t, s)
	c := &Client{Base: ts.URL, MaxAttempts: 1}
	ctx := context.Background()

	const total = maxBatchMsgs + 1
	payloads := make([][]byte, total)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	ids, err := c.ProduceBatch(ctx, "t", payloads)
	if err != nil {
		t.Fatalf("oversize produce-batch: %v", err)
	}
	if len(ids) != total {
		t.Fatalf("oversize produce-batch returned %d ids, want %d", len(ids), total)
	}

	acks := make([]AckEntry, 0, total)
	for len(acks) < total {
		ds, err := c.ConsumeBatch(ctx, "t", maxBatchMsgs, 0)
		if err != nil || len(ds) == 0 {
			t.Fatalf("consume-batch: %d deliveries, err %v", len(ds), err)
		}
		for _, d := range ds {
			acks = append(acks, AckEntry{ID: d.ID, Token: d.Token})
		}
	}
	res, err := c.AckBatch(ctx, "t", acks)
	if err != nil {
		t.Fatalf("oversize ack-batch: %v", err)
	}
	if len(res) != total {
		t.Fatalf("oversize ack-batch resolved %d, want %d", len(res), total)
	}
	for i, r := range res {
		if r != AckOK {
			t.Fatalf("ack %d = %v, want AckOK", i, r)
		}
	}
}

// TestBatchRoundTrip: produce-batch → consume-batch → ack-batch over
// real HTTP, exactly once, ending in a clean verified drain.
func TestBatchRoundTrip(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"orders"}})
	ts := startServer(t, s)
	c := &Client{Base: ts.URL, Tenant: "acme"}
	ctx := context.Background()

	const batches, k = 8, 32
	want := make(map[uint64]string, batches*k)
	for b := 0; b < batches; b++ {
		payloads := make([][]byte, k)
		for i := range payloads {
			payloads[i] = []byte(fmt.Sprintf("msg-%d-%d", b, i))
		}
		ids, err := c.ProduceBatch(ctx, "orders", payloads)
		if err != nil {
			t.Fatalf("produce-batch %d: %v", b, err)
		}
		if len(ids) != k {
			t.Fatalf("produce-batch %d returned %d ids, want %d", b, len(ids), k)
		}
		for i, id := range ids {
			if want[id] != "" {
				t.Fatalf("id %d assigned twice", id)
			}
			want[id] = string(payloads[i])
		}
	}

	seen := 0
	for seen < batches*k {
		ds, err := c.ConsumeBatch(ctx, "orders", k, 0)
		if err != nil {
			t.Fatalf("consume-batch: %v", err)
		}
		if len(ds) == 0 {
			t.Fatalf("empty batch with %d messages outstanding", batches*k-seen)
		}
		acks := make([]AckEntry, len(ds))
		for i, d := range ds {
			if want[d.ID] == "" {
				t.Fatalf("unknown or duplicate id %d delivered", d.ID)
			}
			if string(d.Payload) != want[d.ID] {
				t.Fatalf("id %d payload = %q, want %q", d.ID, d.Payload, want[d.ID])
			}
			delete(want, d.ID)
			acks[i] = AckEntry{ID: d.ID, Token: d.Token}
		}
		res, err := c.AckBatch(ctx, "orders", acks)
		if err != nil {
			t.Fatalf("ack-batch: %v", err)
		}
		for i, r := range res {
			if r != AckOK {
				t.Fatalf("ack %d = %v, want AckOK", i, r)
			}
		}
		// A replayed ack must resolve unknown (records are gone), never ok.
		res, err = c.AckBatch(ctx, "orders", acks[:1])
		if err != nil || len(res) != 1 || res[0] != AckUnknown {
			t.Fatalf("replayed ack = %v, %v; want [AckUnknown]", res, err)
		}
		seen += len(ds)
	}

	if ds, err := c.ConsumeBatch(ctx, "orders", k, 0); err != nil || len(ds) != 0 {
		t.Fatalf("drained topic returned %d deliveries, err %v", len(ds), err)
	}
	st := s.Stats()
	if st.BatchMsgs == 0 || st.BatchBatches == 0 {
		t.Fatalf("batch counters never moved: %+v", st)
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestBatchMixedWithSingleOps: messages produced in a batch may be
// consumed and acked one at a time and vice versa — the two surfaces
// share one lease state machine (and one slab discipline).
func TestBatchMixedWithSingleOps(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}})
	ts := startServer(t, s)
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	if _, err := c.ProduceBatch(ctx, "t", [][]byte{[]byte("a"), []byte("b")}); err != nil {
		t.Fatalf("produce-batch: %v", err)
	}
	if _, err := c.Produce(ctx, "t", []byte("c")); err != nil {
		t.Fatalf("produce: %v", err)
	}
	got := map[string]bool{}
	for i := 0; i < 2; i++ { // two singles
		d, err := c.Consume(ctx, "t")
		if err != nil || d == nil {
			t.Fatalf("consume %d: %v %v", i, d, err)
		}
		got[string(d.Payload)] = true
		if err := c.Ack(ctx, "t", d.ID, d.Token); err != nil {
			t.Fatalf("ack: %v", err)
		}
	}
	ds, err := c.ConsumeBatch(ctx, "t", 8, 0) // rest via batch
	if err != nil || len(ds) != 1 {
		t.Fatalf("consume-batch got %d, err %v; want 1", len(ds), err)
	}
	got[string(ds[0].Payload)] = true
	if len(got) != 3 || !got["a"] || !got["b"] || !got["c"] {
		t.Fatalf("payloads seen = %v, want a,b,c", got)
	}
	if res, err := c.AckBatch(ctx, "t", []AckEntry{{ID: ds[0].ID, Token: ds[0].Token}}); err != nil || res[0] != AckOK {
		t.Fatalf("ack-batch = %v, %v", res, err)
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestBatchPartialQuota: a batch bigger than the remaining bucket gets
// its prefix admitted with Retry-After for the suffix; an empty bucket
// refuses the whole batch with 429. A retrying client completes the
// batch across the seam; a single-attempt client surfaces the partial.
func TestBatchPartialQuota(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}, QuotaRate: 10, QuotaBurst: 5})
	ts := startServer(t, s)
	ctx := context.Background()
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}

	// Single attempt: the burst-5 bucket admits exactly the prefix.
	one := &Client{Base: ts.URL, Tenant: "impatient", MaxAttempts: 1}
	ids, err := one.ProduceBatch(ctx, "t", payloads)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("partial produce err = %v, want ErrShed", err)
	}
	if len(ids) != 5 {
		t.Fatalf("partial produce accepted %d, want burst=5", len(ids))
	}
	// Bucket now empty: the next batch is refused whole.
	if ids, err := one.ProduceBatch(ctx, "t", payloads[:2]); !errors.Is(err, ErrShed) || len(ids) != 0 {
		t.Fatalf("empty-bucket produce = %d ids, err %v; want 0, ErrShed", len(ids), err)
	}

	// A retrying client finishes the same shape of batch: 10 tok/s
	// refills fast enough for 8 messages inside the backoff schedule.
	patient := &Client{Base: ts.URL, Tenant: "patient", Backoff: Backoff{Base: 50 * time.Millisecond, Max: 500 * time.Millisecond}}
	ids, err = patient.ProduceBatch(ctx, "t", payloads)
	if err != nil {
		t.Fatalf("retrying produce-batch: %v", err)
	}
	if len(ids) != 8 {
		t.Fatalf("retrying produce-batch accepted %d, want 8", len(ids))
	}
	if patient.Retries == 0 {
		t.Fatal("client never backed off: burst=5 cannot take 8 in one go")
	}
	if st := s.Stats(); st.ShedQuota == 0 {
		t.Fatalf("shed_quota never counted the partial admissions: %+v", st)
	}
}

// TestAckBatchStaleTokens: one ack-batch mixing a live token, a stale
// token, and an unknown id resolves each entry independently.
func TestAckBatchStaleTokens(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}, Lease: 50 * time.Millisecond})
	ts := startServer(t, s)
	c := &Client{Base: ts.URL}
	ctx := context.Background()
	topic := s.Topic("t")

	if _, err := c.ProduceBatch(ctx, "t", [][]byte{[]byte("live"), []byte("expires")}); err != nil {
		t.Fatalf("produce-batch: %v", err)
	}
	ds, err := c.ConsumeBatch(ctx, "t", 2, 0)
	if err != nil || len(ds) != 2 {
		t.Fatalf("consume-batch got %d, err %v", len(ds), err)
	}
	// Expire both leases and redeliver by hand, then re-lease the second
	// message so its old token is one lease behind.
	if n := topic.sweep(time.Now().Add(time.Minute)); n != 2 {
		t.Fatalf("sweep redelivered %d, want 2", n)
	}
	re, err := c.ConsumeBatch(ctx, "t", 2, 0)
	if err != nil || len(re) != 2 {
		t.Fatalf("re-consume got %d, err %v", len(re), err)
	}

	res, err := c.AckBatch(ctx, "t", []AckEntry{
		{ID: ds[0].ID, Token: ds[0].Token}, // stale token (record re-leased) → conflict
		{ID: re[0].ID, Token: re[0].Token}, // live lease → ok
		{ID: 999999, Token: 1},             // never produced → unknown
	})
	if err != nil {
		t.Fatalf("ack-batch: %v", err)
	}
	want := []AckResult{AckConflict, AckOK, AckUnknown}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("result[%d] = %v, want %v (all: %v)", i, res[i], want[i], res)
		}
	}
	// The conflicted message is still owned by its live lease.
	if res, err := c.AckBatch(ctx, "t", []AckEntry{{ID: re[1].ID, Token: re[1].Token}}); err != nil || res[0] != AckOK {
		t.Fatalf("live ack after conflict = %v, %v", res, err)
	}
}

// TestBatchLongPoll: a consume-batch with wait= parks until a producer
// arrives instead of returning 204, and Drain is not held hostage by a
// parked poller.
func TestBatchLongPoll(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}})
	ts := startServer(t, s)
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	start := time.Now()
	done := make(chan error, 1)
	var got []Delivery
	go func() {
		ds, err := c.ConsumeBatch(ctx, "t", 4, 5*time.Second)
		got = ds
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Produce(ctx, "t", []byte("wakeup")); err != nil {
		t.Fatalf("produce: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("long-poll consume: %v", err)
	}
	if len(got) != 1 || string(got[0].Payload) != "wakeup" {
		t.Fatalf("long-poll got %v", got)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("long-poll returned only after %v: wake channel never fired", waited)
	}
	if res, err := c.AckBatch(ctx, "t", []AckEntry{{ID: got[0].ID, Token: got[0].Token}}); err != nil || res[0] != AckOK {
		t.Fatalf("ack = %v, %v", res, err)
	}

	// A poller parked on an empty topic must not stall Drain past its
	// re-check tick.
	go func() {
		_, err := c.ConsumeBatch(ctx, "t", 4, 10*time.Second)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := s.Drain(dctx); err != nil {
		t.Fatalf("drain with parked poller: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked poller after drain: %v", err)
	}
}

// TestBatchSlabRecycling drives enough produce→consume→ack batches
// through one topic to force slab reuse, verifying ids and payloads
// stay exact across recycles (the pool returns hot slabs, not fresh
// memory, so any stale-pointer bug shows up as corruption here).
func TestBatchSlabRecycling(t *testing.T) {
	s := newTestService(t, Config{Topics: []string{"t"}, QuotaRate: -1})
	ts := startServer(t, s)
	c := &Client{Base: ts.URL}
	ctx := context.Background()

	for round := 0; round < 50; round++ {
		payloads := make([][]byte, 16)
		for i := range payloads {
			payloads[i] = []byte(fmt.Sprintf("r%d-m%d", round, i))
		}
		ids, err := c.ProduceBatch(ctx, "t", payloads)
		if err != nil {
			t.Fatalf("round %d produce: %v", round, err)
		}
		byID := map[uint64]string{}
		for i, id := range ids {
			byID[id] = string(payloads[i])
		}
		for len(byID) > 0 {
			ds, err := c.ConsumeBatch(ctx, "t", 16, 0)
			if err != nil || len(ds) == 0 {
				t.Fatalf("round %d consume: %d, %v", round, len(ds), err)
			}
			acks := make([]AckEntry, len(ds))
			for i, d := range ds {
				if byID[d.ID] != string(d.Payload) {
					t.Fatalf("round %d id %d: payload %q, want %q", round, d.ID, d.Payload, byID[d.ID])
				}
				delete(byID, d.ID)
				acks[i] = AckEntry{ID: d.ID, Token: d.Token}
			}
			if _, err := c.AckBatch(ctx, "t", acks); err != nil {
				t.Fatalf("round %d ack: %v", round, err)
			}
		}
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
