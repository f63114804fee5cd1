package service

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"turnqueue"
	"turnqueue/internal/inject"
)

// Delivery states, packed into the high 8 bits of a delivery's state
// word. The low 56 bits carry the lease sequence number, which doubles
// as the delivery token: every lease bumps it, so a token names exactly
// one lease and a late ack (after expiry and redelivery) can never match
// the current word.
const (
	statePending    = 0 // in the queue (or about to be), no consumer owns it
	stateLeased     = 1 // delivered to a consumer, ack due before deadline
	stateAcked      = 2 // terminal: consumer confirmed, record removed
	stateReclaiming = 3 // sweeper's reversible claim, mid-redelivery
)

const (
	stateShift = 56
	seqMask    = 1<<stateShift - 1
)

func pack(state, seq uint64) uint64 { return state<<stateShift | seq&seqMask }
func stateOf(w uint64) uint64       { return w >> stateShift }
func seqOf(w uint64) uint64         { return w & seqMask }

// delivery is one message's lifecycle record. The queue itself carries
// only the message id; payload and lease state live here, in the
// topic's slab directory, which the sweeper scans. All transitions are
// single CASes on word, which is what makes the ack-vs-redeliver race
// safe: exactly one of the consumer's ack and the sweeper's claim wins
// the leased word.
type delivery struct {
	// payload aliases the owning slab's buffer. Only the dequeuer of the
	// pending record reads it (see ConsumeBatch).
	payload []byte

	// word is the packed (state, lease seq) pair; see pack.
	word atomic.Uint64
	// deadline is the current lease's expiry in unix nanos; meaningful
	// only while word holds stateLeased. Written by the leasing consumer
	// before it publishes the lease, so the sweeper never pairs a fresh
	// lease with a stale deadline.
	deadline atomic.Int64
}

// Message ids are (generation, record number) pairs, so every lookup
// is arithmetic on the id plus one generation compare:
//
//	bits 63..32  the slab's generation when the message was produced
//	bits 31..0   the record number: chunk index × chunkRecs + position
//
// Generations start at 1 and skip 0 on wrap, so ids are never zero.
// They are unique per topic until one slab recycles 2^32 times.
const (
	chunkBits = 10
	chunkRecs = 1 << chunkBits // records per chunk, and the largest slab
	nClasses  = chunkBits + 1  // slab classes of 1, 2, 4, ..., chunkRecs records
	genShift  = 32
	maxChunks = 1 << (genShift - chunkBits)
)

// slab is the record table's unit of reuse: a power-of-two run of
// delivery records plus one buffer for their payload bytes. A produce
// takes one slab for its batch; the ack that drops live to zero returns
// it to the topic's free list for its size class. Slabs are carved, all
// of one class, out of chunkRecs-record chunks, and never leave their
// topic: the directory indexes every chunk ever created, so the table is
// sized by the peak of outstanding batches, not by traffic.
//
// Reuse is guarded by the generation: the releasing acker bumps gen
// before the slab reaches the free list, so an id from a previous life
// fails the lookup's generation compare. A lookup that passed the
// compare just before the bump can still reach the record; what it can
// do there is harmless:
//
//   - acks and the sweeper act only through a CAS keyed on leased|token,
//     and lease tokens come from one process-global counter (leaseSeq),
//     so a token names one lease in the process's history and a stale
//     CAS never matches a recycled record;
//   - the payload — the only non-atomic field — is read only by the
//     dequeuer of a pending record, before it publishes the lease. Until
//     that lease exists nothing can ack the record, so its slab cannot
//     be recycled under the read.
type slab struct {
	gen  atomic.Uint32
	base uint32 // record number of recs[0], fixed for the slab's life
	size int    // class: len(recs) == 1<<size

	// recs is carved once from its chunk and never reallocated, so
	// lookups may index it without a lock. Records past the current batch
	// stay acked, so scans skip them.
	recs []delivery
	buf  []byte
	// used is how many records the current batch fills (producer-owned).
	used int
	// live counts records not yet acked; the acker that drops it to zero
	// recycles the slab.
	live atomic.Int64
}

func (sl *slab) id(gen uint32, off int) uint64 {
	return uint64(gen)<<genShift | uint64(sl.base+uint32(off))
}

// leaseSeq issues delivery tokens: one process-global stream shared by
// every topic, so a token names exactly one lease ever granted and a
// late ack keyed on it can never land on a recycled record. 56 bits
// (seqMask) at service rates outlive any process.
var leaseSeq atomic.Uint64

// Topic is one named queue plus its delivery-lease layer. The backend is
// the sharded wait-free front behind an AutoQueue, so request-handler
// goroutines need no explicit Handle discipline.
type Topic struct {
	name  string
	q     *turnqueue.AutoQueue[uint64]
	lease time.Duration

	// dir is the slab directory: chunk i holds record numbers
	// [i*chunkRecs, (i+1)*chunkRecs), carved into slabs of one class. It
	// is copy-on-grow: a new chunk is appended under slabMu and the grown
	// slice published with one store, so readers index it lock-free.
	dir atomic.Pointer[[][]slab]
	// slabMu guards the free lists and directory growth: O(1) work per
	// batch produced and per slab recycled, never per message.
	slabMu sync.Mutex
	free   [nClasses][]*slab

	// wake pulses when messages arrive (produce or redelivery); long-poll
	// consumers park on it instead of spinning empty round trips. One
	// buffered slot: a pulse into a full channel is dropped because the
	// news it carries — "the queue may be non-empty" — is already posted.
	wake chan struct{}

	br *breaker

	// closing gates the sweeper's redelivery: once set, sweep stops
	// claiming expired leases — they stay leased for Drain to report as
	// unacked, and a shutdown-window ack is never spuriously refused by
	// a claim that would only be put back.
	closing atomic.Bool

	// Counters, exported through the stats surface.
	produced    atomic.Int64
	consumed    atomic.Int64 // leases granted (includes redeliveries)
	acked       atomic.Int64
	redelivered atomic.Int64 // expired leases re-queued by the sweeper
	requeued    atomic.Int64 // consumer crashed pre-lease, message put back
	conflicts   atomic.Int64 // acks refused (wrong token / expired lease)
}

func newTopic(name string, q *turnqueue.AutoQueue[uint64], lease time.Duration, br *breaker) *Topic {
	return &Topic{
		name:  name,
		q:     q,
		lease: lease,
		wake:  make(chan struct{}, 1),
		br:    br,
	}
}

// chunks returns the current directory (nil before the first produce).
func (t *Topic) chunks() [][]slab {
	if d := t.dir.Load(); d != nil {
		return *d
	}
	return nil
}

// getSlab takes a slab of the smallest class holding k records (k <=
// chunkRecs) from the free list, or carves a new chunk into slabs of
// that class, and fills its first k records with payloads as pending
// messages. The message ids are appended to ids.
func (t *Topic) getSlab(payloads [][]byte, ids []uint64) []uint64 {
	k := len(payloads)
	size := bits.Len(uint(k - 1))
	t.slabMu.Lock()
	var sl *slab
	if n := len(t.free[size]); n > 0 {
		sl = t.free[size][n-1]
		t.free[size][n-1] = nil
		t.free[size] = t.free[size][:n-1]
	} else {
		sl = t.newChunkLocked(size)
	}
	t.slabMu.Unlock()

	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	if cap(sl.buf) < total {
		sl.buf = make([]byte, 0, total)
	}
	sl.buf = sl.buf[:0]
	for i := k; i < sl.used; i++ {
		sl.recs[i].payload = nil
	}
	sl.used = k
	sl.live.Store(int64(k))
	gen := sl.gen.Load()
	for i, p := range payloads {
		rec := &sl.recs[i]
		off := len(sl.buf)
		sl.buf = append(sl.buf, p...) // cap pre-sized: never reallocates
		rec.payload = sl.buf[off:len(sl.buf):len(sl.buf)]
		rec.deadline.Store(0)
		rec.word.Store(pack(statePending, 0))
		ids = append(ids, sl.id(gen, i))
	}
	return ids
}

// newChunkLocked appends a chunk carved into slabs of class size, every
// record acked (free), puts all but the first slab on the free list and
// returns the first. Caller holds slabMu.
func (t *Topic) newChunkLocked(size int) *slab {
	d := t.chunks()
	if len(d) >= maxChunks {
		// 2^32 outstanding records: memory runs out long before this.
		panic(fmt.Sprintf("service: topic %q exceeds %d outstanding messages", t.name, uint64(maxChunks)*chunkRecs))
	}
	recs := make([]delivery, chunkRecs)
	for i := range recs {
		recs[i].word.Store(pack(stateAcked, 0))
	}
	c := make([]slab, chunkRecs>>size)
	for i := range c {
		lo, hi := i<<size, (i+1)<<size
		c[i].base = uint32(len(d)<<chunkBits + lo)
		c[i].size = size
		c[i].recs = recs[lo:hi:hi]
		c[i].gen.Store(1)
	}
	d = append(d, c)
	t.dir.Store(&d)
	for i := len(c) - 1; i > 0; i-- {
		t.free[size] = append(t.free[size], &c[i])
	}
	return &c[0]
}

// slabBufKeep is the largest payload buffer a recycled slab keeps. A
// slab on the free list may sit there indefinitely, so one that carried
// large payloads drops them at release instead of pinning the peak.
const slabBufKeep = 4 << 10

// release is the acker's side of the slab contract: called once per
// acked record, it recycles the slab when the last record goes. The
// generation bump precedes the free-list push, so by the time a producer
// can reuse the slab every old id already fails its lookup.
func (t *Topic) release(sl *slab) {
	if sl.live.Add(-1) != 0 {
		return
	}
	// Every record is acked, so no dequeuer can still read a payload.
	if cap(sl.buf) > slabBufKeep {
		sl.buf = nil
		for i := 0; i < sl.used; i++ {
			sl.recs[i].payload = nil
		}
	}
	g := sl.gen.Load() + 1
	if g == 0 {
		g = 1
	}
	sl.gen.Store(g)
	t.slabMu.Lock()
	t.free[sl.size] = append(t.free[sl.size], sl)
	t.slabMu.Unlock()
}

// lookup resolves an id to its slab and record; nil when the id names
// no record of the slab's current generation.
func (t *Topic) lookup(id uint64) (*slab, *delivery) {
	d := t.chunks()
	r := uint32(id)
	if int(r>>chunkBits) >= len(d) {
		return nil, nil
	}
	c := d[r>>chunkBits]
	sl := &c[(r%chunkRecs)>>c[0].size]
	if sl.gen.Load() != uint32(id>>genShift) {
		return nil, nil
	}
	return sl, &sl.recs[r-sl.base]
}

// notify pulses the wake channel (non-blocking: a dropped pulse means a
// waiter is already going to find the message).
func (t *Topic) notify() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// ProduceBatch registers and enqueues k payloads as one batch: one slab
// per chunkRecs messages (payload bytes are copied into the slab's buffer,
// so the caller's payload views may alias a transient request buffer)
// and one EnqueueBatch on the wait-free backend, which installs the
// whole chain at a single CAS. One message takes the single-op Enqueue
// instead: a k=1 EnqueueBatch seals the tail ring and announces a ring
// of its own, which per message turns every produce into a slow path
// and multiplies the rings the reclaimer must retire (it broke the
// parked-reader backlog bound when tried). The assigned ids are
// appended to ids and returned. The tenant is charged at admission and
// not retained.
func (t *Topic) ProduceBatch(tenant string, payloads [][]byte, ids []uint64) []uint64 {
	k := len(payloads)
	if k == 0 {
		return ids
	}
	start := len(ids)
	for off := 0; off < k; off += chunkRecs {
		ids = t.getSlab(payloads[off:min(off+chunkRecs, k)], ids)
	}
	if k == 1 {
		t.q.Enqueue(ids[start])
	} else {
		t.q.EnqueueBatch(ids[start:])
	}
	t.produced.Add(int64(k))
	t.notify()
	return ids
}

// grant publishes a lease on a pending record its caller dequeued. A
// pending word changes only under its one dequeuer — acks and the sweeper
// act on leased words alone — so a plain store publishes the lease.
// Deadline first: the sweeper reads (word, deadline) in that order and
// must never see the new lease with the old expiry. Once the lease is
// visible the record may be acked (or redelivered and acked) and its
// slab recycled at any moment, so the caller must be done with the
// payload before calling grant.
func (rec *delivery) grant(token uint64, deadline int64) {
	rec.deadline.Store(deadline)
	rec.word.Store(pack(stateLeased, token))
}

// deliveryWireOverhead is the worst-case encoded size of one delivery's
// id+token+length prefixes (three uvarints), used by ConsumeBatch's byte
// budget so the topic layer can bound the encoded response without
// knowing the frame format.
const deliveryWireOverhead = 30

// ConsumeBatch dequeues up to len(ids) messages in one backend batch
// (one slot lease, see AutoQueue.DequeueBatch) and leases each to the
// caller with one shared deadline. For every granted lease it calls emit
// with the id, token, and payload; emit must copy the payload before
// returning — emit runs before the lease is published, and once it is,
// the record's slab may be recycled. No lock is taken: each id resolves
// to its record by arithmetic. Returns the number of leases granted (==
// emit calls).
//
// The SvcConsumerCrash fault point sits between the dequeue and the
// first grant: the ids are out of the queue but no lease exists yet. A
// crash there puts every dequeued id back (see crashWindow) and
// ConsumeBatch returns 0; the handlers, which call consume, answer 500.
//
// maxBytes bounds the summed payload + per-delivery overhead of the
// granted leases: once the next record would push past it, the grant
// loop stops and re-enqueues every remaining dequeued id, un-leased —
// the lease is the commitment, so a delivery that could not fit the
// response frame must never be leased in the first place (it would only
// expire and churn through redelivery). At least one lease is always
// granted when the batch is non-empty (a payload is capped well below
// any sane budget), and the re-enqueued suffix goes to the queue's tail,
// trading FIFO position for never over-committing. maxBytes <= 0 means
// unbounded.
func (t *Topic) ConsumeBatch(now time.Time, ids []uint64, maxBytes int, emit func(id, token uint64, payload []byte)) int {
	n, _ := t.consume(now, ids, maxBytes, emit)
	return n
}

// consume is ConsumeBatch with the simulated crash reported.
func (t *Topic) consume(now time.Time, ids []uint64, maxBytes int, emit func(id, token uint64, payload []byte)) (int, error) {
	n := t.q.DequeueBatch(ids)
	if n == 0 {
		return 0, nil
	}
	if inject.Enabled {
		if err := t.crashWindow(ids[:n]); err != nil {
			return 0, err
		}
	}
	deadline := now.Add(t.lease).UnixNano()
	// One reservation covers the batch's tokens; any left unused are
	// simply never issued.
	token := leaseSeq.Add(uint64(n)) - uint64(n)
	granted, used := 0, 0
	requeued := false
	for i, qid := range ids[:n] {
		_, rec := t.lookup(qid)
		if rec == nil || stateOf(rec.word.Load()) != statePending {
			// Unreachable: the queue holds only ids of pending records.
			// Skipping it beats failing the request.
			continue
		}
		if sz := len(rec.payload) + deliveryWireOverhead; maxBytes > 0 && granted > 0 && used+sz > maxBytes {
			// Response budget exhausted: put the rest back, still pending.
			t.q.EnqueueBatch(ids[i:n])
			requeued = true
			break
		} else {
			used += sz
		}
		token++
		emit(qid, token, rec.payload)
		rec.grant(token, deadline)
		granted++
	}
	t.consumed.Add(int64(granted))
	if requeued {
		t.notify() // the suffix is news to any parked long-poller
	}
	return granted, nil
}

// crashWindow hosts the SvcConsumerCrash fault point so a simulated
// crash unwinds only this frame: the deferred recover puts every
// dequeued id back on the queue with single-op Enqueues (zero loss; see
// ProduceBatch on k=1 batches) and surfaces the crash as an error.
func (t *Topic) crashWindow(ids []uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, isCrash := r.(inject.CrashError)
			if !isCrash {
				panic(r)
			}
			for _, id := range ids {
				t.q.Enqueue(id)
			}
			t.requeued.Add(int64(len(ids)))
			t.notify()
			err = ce
		}
	}()
	inject.Fire(inject.SvcConsumerCrash)
	return nil
}

// AckBatch confirms each delivery (id, token), with the counters updated
// once per batch. Results are appended to results in entry order. An
// ack succeeds only while the exact lease named by token is still open:
// one CAS from leased|token to acked|token. A late ack — the lease
// expired and the sweeper reclaimed the message — finds the word moved
// on (reclaiming, pending with the same seq, or a later lease) and is
// refused, which is what makes redelivery exactly-once: either the
// consumer's ack or the sweeper's claim wins the word, never both.
func (t *Topic) AckBatch(entries []AckEntry, results []AckResult) []AckResult {
	var acked, conflicts int64
	for _, e := range entries {
		res := t.ack(e.ID, e.Token)
		switch res {
		case AckOK:
			acked++
		case AckConflict:
			conflicts++
		}
		results = append(results, res)
	}
	t.acked.Add(acked)
	t.conflicts.Add(conflicts)
	return results
}

func (t *Topic) ack(id, token uint64) AckResult {
	sl, rec := t.lookup(id)
	if rec == nil {
		return AckUnknown
	}
	if !rec.word.CompareAndSwap(pack(stateLeased, token), pack(stateAcked, token)) {
		if stateOf(rec.word.Load()) == stateAcked || sl.gen.Load() != uint32(id>>genShift) {
			return AckUnknown // acked before, or the slab has moved on
		}
		return AckConflict
	}
	t.release(sl)
	return AckOK
}

// AckResult classifies one ack.
type AckResult int

const (
	// AckOK: the lease was open and is now closed; the message is done.
	AckOK AckResult = iota
	// AckConflict: the token no longer names the current lease — it
	// expired and was redelivered (or was already acked). HTTP 409.
	AckConflict
	// AckUnknown: no record for the id (already acked and removed, or
	// never produced). HTTP 404.
	AckUnknown
)

// sweep redelivers every message whose lease expired before now. The
// sweeper first CASes leased→reclaiming (losing the race to a concurrent
// ack is fine — the ack won the message), republishes the record as
// pending with the *claimed* seq, and only then re-enqueues the id.
// Publication order matters: the id must not be dequeuable while the
// word still reads reclaiming, or a consumer would skip it. A won claim
// also pins the slab (the record is not acked), so the generation read
// for the id is the one the message was produced under. A closing topic
// stops the sweep before any claim: expired leases stay leased for Drain
// to report as unacked, and a last-instant ack lands cleanly instead of
// bouncing off a claim that would only be put back (a spurious 409 at
// shutdown).
func (t *Topic) sweep(now time.Time) (redelivered int) {
	nowNS := now.UnixNano()
scan:
	for _, c := range t.chunks() {
		for i := range c {
			sl := &c[i]
			if sl.live.Load() == 0 {
				continue // free, or every record acked
			}
			for off := range sl.recs {
				rec := &sl.recs[off]
				w := rec.word.Load()
				if stateOf(w) != stateLeased || rec.deadline.Load() >= nowNS {
					continue
				}
				if t.closing.Load() {
					break scan // Drain owns the accounting from here on
				}
				tok := seqOf(w)
				if !rec.word.CompareAndSwap(w, pack(stateReclaiming, tok)) {
					continue // lost to a last-instant ack: the consumer keeps it
				}
				rec.word.Store(pack(statePending, tok))
				t.q.Enqueue(sl.id(sl.gen.Load(), off))
				redelivered++
			}
		}
	}
	if redelivered > 0 {
		t.redelivered.Add(int64(redelivered))
		t.notify()
	}
	return redelivered
}

// Outstanding counts undelivered or unacked messages (pending + leased
// + mid-reclaim records): the sum of the slabs' live counts.
func (t *Topic) Outstanding() int {
	n := 0
	for _, c := range t.chunks() {
		for i := range c {
			n += int(c[i].live.Load())
		}
	}
	return n
}

// unackedCount counts deliveries handed to a consumer and never acked —
// records still leased (or caught mid-reclaim) once the sweeper has
// stopped. Drain reports these so shutdown never silently discards a
// delivery a consumer may still believe it owns.
func (t *Topic) unackedCount() int {
	n := 0
	for _, c := range t.chunks() {
		for i := range c {
			for j := range c[i].recs {
				if st := stateOf(c[i].recs[j].word.Load()); st == stateLeased || st == stateReclaiming {
					n++
				}
			}
		}
	}
	return n
}

// Pressure reports the backend's reclaim backlog against its bound (the
// breaker's signal; bounded=false for epoch/QSBR backends).
func (t *Topic) Pressure() (backlog, bound int, bounded bool) {
	return t.q.ReclaimPressure()
}

// Snapshot captures the backend queue's accounting view.
func (t *Topic) Snapshot() turnqueue.Snapshot { return t.q.Snapshot() }

// TopicStats is the per-topic stats row.
type TopicStats struct {
	Produced    int64 `json:"produced"`
	Consumed    int64 `json:"consumed"`
	Acked       int64 `json:"acked"`
	Redelivered int64 `json:"redelivered"`
	Requeued    int64 `json:"requeued"`
	Conflicts   int64 `json:"conflicts"`
	Outstanding int   `json:"outstanding"`

	Backlog        int   `json:"reclaim_backlog"`
	Bound          int   `json:"reclaim_bound"`
	Bounded        bool  `json:"reclaim_bounded"`
	BreakerOpen    bool  `json:"breaker_open"`
	BreakerTrips   int64 `json:"breaker_trips"`
	BreakerShed    int64 `json:"breaker_shed"`
	BreakerSamples int64 `json:"breaker_samples"`
}

// Stats assembles the topic's counter row.
func (t *Topic) Stats() TopicStats {
	backlog, bound, bounded := t.Pressure()
	st := TopicStats{
		Produced:    t.produced.Load(),
		Consumed:    t.consumed.Load(),
		Acked:       t.acked.Load(),
		Redelivered: t.redelivered.Load(),
		Requeued:    t.requeued.Load(),
		Conflicts:   t.conflicts.Load(),
		Outstanding: t.Outstanding(),
		Backlog:     backlog,
		Bound:       bound,
		Bounded:     bounded,
	}
	if t.br != nil {
		st.BreakerOpen = t.br.isOpen()
		st.BreakerTrips = t.br.trips.Load()
		st.BreakerShed = t.br.shed.Load()
		st.BreakerSamples = t.br.samples.Load()
	}
	return st
}
