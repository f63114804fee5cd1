package service

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// consumeAll leases every message the topic hands out in one batch of up
// to max and returns the deliveries (payloads copied).
func consumeAll(topic *Topic, now time.Time, max int) []Delivery {
	var ds []Delivery
	topic.ConsumeBatch(now, make([]uint64, max), 0, func(id, token uint64, p []byte) {
		ds = append(ds, Delivery{ID: id, Token: token, Payload: append([]byte(nil), p...)})
	})
	return ds
}

// produceOne, consumeOne and ackOne drive the topic's batch methods at
// k=1 — the calls the single-op endpoints make.
func produceOne(topic *Topic, payload []byte) uint64 {
	return topic.ProduceBatch("a", [][]byte{payload}, nil)[0]
}

func consumeOne(topic *Topic, now time.Time) (Delivery, bool) {
	ds := consumeAll(topic, now, 1)
	if len(ds) == 0 {
		return Delivery{}, false
	}
	return ds[0], true
}

func ackOne(topic *Topic, id, token uint64) AckResult {
	return topic.AckBatch([]AckEntry{{ID: id, Token: token}}, nil)[0]
}

// recordNumber is an id's generation-free part: which record it names.
func recordNumber(id uint64) uint32 { return uint32(id) }

// TestRecycledSlabStaleIDUnknown: once a slab is recycled, an id from its
// previous life resolves to nothing (AckUnknown, not a conflict), and the
// record comes back under a new id.
func TestRecycledSlabStaleIDUnknown(t *testing.T) {
	s := newTestService(t, Config{})
	topic := s.Topic("t")
	now := time.Unix(2000, 0)

	old := produceOne(topic, []byte("first"))
	d, ok := consumeOne(topic, now)
	if !ok || d.ID != old {
		t.Fatalf("consume: %+v ok=%v", d, ok)
	}
	if res := ackOne(topic, d.ID, d.Token); res != AckOK {
		t.Fatalf("ack = %v", res)
	}

	fresh := produceOne(topic, []byte("second"))
	if recordNumber(fresh) != recordNumber(old) {
		t.Fatalf("fresh id %#x does not reuse the slot of %#x", fresh, old)
	}
	if fresh == old {
		t.Fatalf("recycled slab reissued id %#x", old)
	}
	if res := ackOne(topic, old, d.Token); res != AckUnknown {
		t.Fatalf("stale id after recycle: ack = %v, want AckUnknown", res)
	}
	d2, ok := consumeOne(topic, now)
	if !ok || d2.ID != fresh || string(d2.Payload) != "second" {
		t.Fatalf("consume after recycle: %+v ok=%v", d2, ok)
	}
	if res := ackOne(topic, old, d2.Token); res != AckUnknown {
		t.Fatalf("stale id with a live token: ack = %v, want AckUnknown", res)
	}
	if res := ackOne(topic, fresh, d2.Token); res != AckOK {
		t.Fatalf("fresh ack = %v, want AckOK", res)
	}
	if st := topic.Stats(); st.Conflicts != 0 || st.Outstanding != 0 {
		t.Fatalf("stats = %+v, want no conflicts and nothing outstanding", st)
	}
}

// TestRecycledSlabDropsLargeBuffer: a slab recycled after carrying large
// payloads keeps neither its buffer nor its records' payload views, so a
// burst of big messages is not pinned by the free list; a small batch
// keeps its buffer for reuse.
func TestRecycledSlabDropsLargeBuffer(t *testing.T) {
	s := newTestService(t, Config{})
	topic := s.Topic("t")
	now := time.Unix(2000, 0)

	cycle := func(size int) *slab {
		t.Helper()
		big := make([]byte, size)
		ids := topic.ProduceBatch("a", [][]byte{big, big}, nil)
		sl, _ := topic.lookup(ids[0])
		if sl == nil {
			t.Fatalf("fresh id %#x resolves to no slab", ids[0])
		}
		ds := consumeAll(topic, now, 2)
		if len(ds) != 2 {
			t.Fatalf("consumed %d, want 2", len(ds))
		}
		for _, d := range ds {
			if res := ackOne(topic, d.ID, d.Token); res != AckOK {
				t.Fatalf("ack = %v", res)
			}
		}
		return sl
	}

	sl := cycle(slabBufKeep)
	if sl.buf != nil {
		t.Fatalf("recycled slab keeps a %d-byte buffer, limit %d", cap(sl.buf), slabBufKeep)
	}
	for i := range sl.recs {
		if sl.recs[i].payload != nil {
			t.Fatalf("recycled slab's record %d keeps a %d-byte payload", i, len(sl.recs[i].payload))
		}
	}

	if again := cycle(64); again != sl {
		t.Fatal("the recycled slab was not reused for the next batch of its class")
	}
	if cap(sl.buf) < 128 || cap(sl.buf) > slabBufKeep {
		t.Fatalf("small batch left a %d-byte buffer, want it kept (128..%d)", cap(sl.buf), slabBufKeep)
	}
}

// TestDoubleAckUnknown: acking an acked record answers AckUnknown, both
// while its slab still holds live records and after the slab recycled.
func TestDoubleAckUnknown(t *testing.T) {
	s := newTestService(t, Config{})
	topic := s.Topic("t")
	now := time.Unix(2000, 0)
	topic.ProduceBatch("a", [][]byte{[]byte("x"), []byte("y")}, nil)
	ds := consumeAll(topic, now, 2)
	if len(ds) != 2 {
		t.Fatalf("consumed %d, want 2", len(ds))
	}
	if res := ackOne(topic, ds[0].ID, ds[0].Token); res != AckOK {
		t.Fatalf("first ack = %v", res)
	}
	if res := ackOne(topic, ds[0].ID, ds[0].Token); res != AckUnknown {
		t.Fatalf("double ack, slab live: %v, want AckUnknown", res)
	}
	if res := ackOne(topic, ds[1].ID, ds[1].Token); res != AckOK {
		t.Fatalf("last ack = %v", res)
	}
	for i, d := range ds {
		if res := ackOne(topic, d.ID, d.Token); res != AckUnknown {
			t.Fatalf("double ack %d, slab recycled: %v, want AckUnknown", i, res)
		}
	}
	if st := topic.Stats(); st.Acked != 2 || st.Conflicts != 0 {
		t.Fatalf("stats = %+v, want acked=2 conflicts=0", st)
	}
}

// TestPartialSlabCounts: a k=20 batch lands in a 32-record slab; the 12
// spare records stay acked, so every scan sees exactly 20.
func TestPartialSlabCounts(t *testing.T) {
	s := newTestService(t, Config{})
	topic := s.Topic("t")
	now := time.Unix(2000, 0)
	payloads := make([][]byte, 20)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	ids := topic.ProduceBatch("a", payloads, nil)
	if sl, _ := topic.lookup(ids[0]); sl == nil || len(sl.recs) != 32 {
		t.Fatal("a k=20 batch must land in a 32-record slab")
	}
	if n := topic.Outstanding(); n != 20 {
		t.Fatalf("Outstanding = %d, want 20", n)
	}
	if n := topic.unackedCount(); n != 0 {
		t.Fatalf("unacked before consume = %d, want 0", n)
	}
	if ds := consumeAll(topic, now, 32); len(ds) != 20 {
		t.Fatalf("consumed %d, want 20", len(ds))
	}
	if n := topic.unackedCount(); n != 20 {
		t.Fatalf("unacked = %d, want 20", n)
	}
	if n := topic.sweep(now.Add(time.Hour)); n != 20 {
		t.Fatalf("sweep redelivered %d, want 20", n)
	}
	if n := topic.Outstanding(); n != 20 {
		t.Fatalf("Outstanding after sweep = %d, want 20", n)
	}
}

// TestConsumeEmitsBeforeLease: ConsumeBatch hands a payload to emit
// before the lease is published. Were it the other way round, an ack
// landing during emit could recycle the slab and a new produce would
// overwrite the bytes emit is copying; here the in-emit ack must find no
// lease yet, and the payload must survive a produce into a fresh slab.
func TestConsumeEmitsBeforeLease(t *testing.T) {
	s := newTestService(t, Config{})
	topic := s.Topic("t")
	produceOne(topic, []byte("original"))
	var got []byte
	var id, token uint64
	n := topic.ConsumeBatch(time.Unix(2000, 0), make([]uint64, 1), 0, func(i, tok uint64, p []byte) {
		id, token = i, tok
		if res := ackOne(topic, i, tok); res == AckOK {
			t.Error("ack landed during emit: the lease was published before the payload was copied")
		}
		produceOne(topic, []byte("OVERWRIT"))
		got = append(got, p...)
	})
	if n != 1 || string(got) != "original" {
		t.Fatalf("granted %d, payload %q, want 1 and \"original\"", n, got)
	}
	if res := ackOne(topic, id, token); res != AckOK {
		t.Fatalf("ack after ConsumeBatch = %v, want AckOK", res)
	}
}

// TestIDsNonzeroUniqueAcrossRecycles: one slab recycled 10k times never
// repeats an id and never issues zero, including across the 32-bit
// generation wrap.
func TestIDsNonzeroUniqueAcrossRecycles(t *testing.T) {
	s := newTestService(t, Config{})
	topic := s.Topic("t")
	now := time.Unix(2000, 0)
	cycle := func() uint64 {
		id := produceOne(topic, []byte("p"))
		d, ok := consumeOne(topic, now)
		if !ok || d.ID != id {
			t.Fatalf("consume: got %#x ok=%v, want %#x", d.ID, ok, id)
		}
		if res := ackOne(topic, d.ID, d.Token); res != AckOK {
			t.Fatalf("ack %#x = %v", id, res)
		}
		return id
	}
	seen := map[uint64]bool{}
	first := cycle()
	seen[first] = true
	const recycles = 10_000
	for i := 0; i < recycles; i++ {
		id := cycle()
		if id == 0 || seen[id] {
			t.Fatalf("recycle %d: id %#x zero or repeated", i, id)
		}
		if recordNumber(id) != recordNumber(first) {
			t.Fatalf("recycle %d: record %#x, want the recycled %#x", i, recordNumber(id), recordNumber(first))
		}
		seen[id] = true
	}
	// Force the free slab to the last generation: the next id carries
	// it, and the ack after that wraps the generation past zero to 1.
	sl, _ := topic.lookup(produceOne(topic, []byte("p")))
	d, _ := consumeOne(topic, now)
	if res := ackOne(topic, d.ID, d.Token); res != AckOK {
		t.Fatalf("ack = %v", res)
	}
	sl.gen.Store(math.MaxUint32)
	if id := cycle(); id>>genShift != math.MaxUint32 {
		t.Fatalf("id %#x does not carry the forced generation", id)
	}
	if id := cycle(); id == 0 || id>>genShift != 1 {
		t.Fatalf("id after generation wrap = %#x, want generation 1", id)
	}
}

// TestRegistryChurnExactlyOnce: four goroutines produce batches of 1..40
// (crossing slab classes), consume in batches of 1..40, and ack — some
// late — while the sweeper redelivers at a 1 ms lease. Every message
// must be acked exactly once with its payload intact.
func TestRegistryChurnExactlyOnce(t *testing.T) {
	const (
		workers = 4
		rounds  = 60
	)
	s, err := New(Config{Topics: []string{"t"}, MaxThreads: 8, QuotaRate: -1,
		Lease: time.Millisecond, SweepEvery: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	topic := s.Topic("t")
	// payloadFor derives a message's bytes from its key, so a record that
	// a recycled slab overwrote shows up as a mismatch.
	payloadFor := func(key uint64) []byte {
		p := binary.LittleEndian.AppendUint64(nil, key)
		for i := uint64(0); i < key%23; i++ {
			p = append(p, byte(key+i))
		}
		return p
	}

	var (
		mu        sync.Mutex
		acked     = map[uint64]int{}
		produced  int
		producing = workers
		conflicts int64
	)
	// settle books one ack outcome in the ledger.
	settle := func(key uint64, res AckResult) {
		mu.Lock()
		defer mu.Unlock()
		switch res {
		case AckOK:
			acked[key]++
		case AckConflict:
			conflicts++ // the lease expired first; the redelivery gets acked
		case AckUnknown:
			// The lease expired and the redelivered copy was acked already:
			// the record is gone, so the late ack is refused as unknown.
		}
	}
	finished := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return producing == 0 && len(acked) == produced
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var seq uint64
			var late, entries []AckEntry
			var lateKeys, keys []uint64
			deadline := time.Now().Add(60 * time.Second)
			for r := 0; ; r++ {
				switch {
				case r < rounds:
					payloads := make([][]byte, 1+rng.Intn(40))
					for i := range payloads {
						payloads[i] = payloadFor(uint64(w)<<32 | seq)
						seq++
					}
					topic.ProduceBatch("a", payloads, nil)
					mu.Lock()
					produced += len(payloads)
					if r == rounds-1 {
						producing--
					}
					mu.Unlock()
				case finished():
					return
				case time.Now().After(deadline):
					t.Errorf("worker %d: ledger incomplete after 60s", w)
					return
				}
				entries, keys = entries[:0], keys[:0]
				topic.ConsumeBatch(time.Now(), make([]uint64, 1+rng.Intn(40)), 0, func(id, token uint64, p []byte) {
					key := binary.LittleEndian.Uint64(p)
					if string(p) != string(payloadFor(key)) {
						t.Errorf("id %#x: payload corrupted (key %d)", id, key)
					}
					entries = append(entries, AckEntry{ID: id, Token: token})
					keys = append(keys, key)
				})
				// Last round's held-back acks go singly, after a sleep long
				// enough for the sweeper to have claimed some of them.
				for i, e := range late {
					settle(lateKeys[i], ackOne(topic, e.ID, e.Token))
				}
				late, lateKeys = late[:0], lateKeys[:0]
				n := 0
				for i, e := range entries {
					if rng.Intn(8) == 0 {
						late, lateKeys = append(late, e), append(lateKeys, keys[i])
						continue
					}
					entries[n], keys[n] = e, keys[i]
					n++
				}
				for i, res := range topic.AckBatch(entries[:n], nil) {
					settle(keys[i], res)
				}
				if len(late) > 0 {
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for key, n := range acked {
		if n != 1 {
			t.Errorf("key %d acked %d times, want exactly once", key, n)
		}
	}
	st := topic.Stats()
	if st.Acked != int64(produced) || st.Produced != int64(produced) || st.Conflicts != conflicts {
		t.Fatalf("stats = %+v, want produced=acked=%d conflicts=%d", st, produced, conflicts)
	}
	if st.Redelivered == 0 {
		t.Fatal("no lease expired: the held-back acks never raced the sweeper")
	}
	t.Logf("produced %d, redelivered %d, conflicts %d", produced, st.Redelivered, conflicts)
	if n := topic.Outstanding(); n != 0 {
		t.Fatalf("Outstanding = %d after every ack, want 0", n)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := s.Drain(dctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Undelivered["t"] != 0 || rep.Unacked["t"] != 0 {
		t.Fatalf("drain report %+v, want empty", rep)
	}
}
