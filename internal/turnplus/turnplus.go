// Package turnplus implements TurnPlus: the Turn queue's wait-free
// consensus slow path (internal/consensus) fronted by an FAA-claimed
// ring-segment fast path in the style of the YMC fast path that
// internal/faaq reproduces.
//
// Structure. The queue is a Turn queue whose nodes carry ring segments:
// a linked list of consensus.Node[*segment] managed by the shared
// consensus.Enq and consensus.Deq engines. Items never live in the node
// list directly — they live in the cells of the rings. The node list
// only orders the rings, and the consensus engines are what append a
// ring (Enq.Announce) and remove a drained ring (Deq.DequeueOne, gated
// by a claim guard so only drained rings are ever claimed). Total FIFO
// order is ring order (node-list order) crossed with cell order inside
// each ring.
//
// Fast path. An enqueue draws an FAA ticket from the tail ring's enqIdx
// and deposits with a nil→box CAS in the ticketed cell; a dequeue draws
// a ticket from the front ring's deqIdx and claims the cell with a
// box→taken CAS. A dequeue ticket that lands on a still-empty cell
// poisons it (nil→taken) and is wasted, exactly as in faaq. Both sides
// retry at most `patience` times.
//
// Slow path. On exhaustion the operation announces into the consensus
// layer:
//
//   - A slow enqueue seals the current tail ring (a two-phase close that
//     publishes an effective capacity no pre-seal ticket can exceed and
//     no post-seal ticket can get under — see segment.seal), builds a
//     ring pre-filled with its item, and installs the ring's node with
//     Enq.Announce. The announce is the paper's Algorithm 2: helped,
//     wait-free, bounded by maxThreads+1 helping iterations.
//   - A slow dequeue publishes a request in a per-thread slot, raises
//     the slowDeq gate (fast dequeuers stop drawing tickets while it is
//     up), and joins the cooperative front march: every slow-path
//     dequeuer resolves the frontmost cell — donating a value to the
//     oldest open request through a reversible claim box, poisoning an
//     empty cell, helping a parked claim, or removing a drained ring
//     through the guarded consensus engine — until its own request is
//     answered with a value or a validated empty.
//
// A thread parked anywhere in the fast/slow window cannot block others:
// an abandoned enqueue ticket is resolved by the poison protocol, an
// abandoned claim box is resolvable (commit or revert) by any helper,
// and ring append/removal are helped consensus rounds. The chaos suite
// parks threads at inject.CoreFastClaim and inject.CoreFastFallback to
// check exactly this.
package turnplus

import (
	"fmt"
	"sync/atomic"

	"turnqueue/internal/account"
	"turnqueue/internal/consensus"
	"turnqueue/internal/epoch"
	"turnqueue/internal/eras"
	"turnqueue/internal/hazard"
	"turnqueue/internal/inject"
	"turnqueue/internal/pad"
	"turnqueue/internal/qrt"
	"turnqueue/internal/qsbr"
	"turnqueue/internal/reclaim"
)

// DefaultSegmentSize is the cells-per-ring default, matching faaq.
const DefaultSegmentSize = 1024

// DefaultPatience is the default fast-path attempt bound per operation.
const DefaultPatience = 8

// hardIterCap mirrors the consensus engines' last-resort bound: if a
// slow-path loop runs this long the queue's invariants are broken and
// crashing beats spinning silently.
const hardIterCap = 1 << 22

// Hazard slot indices. The enqueue-side tail slot is deliberately NOT
// shared with the dequeue-side head slot (unlike the single-engine
// queues): the fast paths leave their protections published between
// operations and skip the re-protect when the pointer is unchanged
// (see cacheSlot), which only pays off if an enqueue does not trample
// the dequeue side's slots and vice versa.
const (
	hpTail = 0 // enqueue side: engine tail + fast-path tail ring node
	hpHead = 1 // dequeue side: engine head + fast-path head sentinel
	hpNext = 2
	hpDeq  = 3
	numHPs = 4
)

type node[T any] = consensus.Node[*segment[T]]

// cellBox is a cell's payload. A plain value box has req == nil. A
// reversible claim box (req != nil) marks a cell being donated to a slow
// dequeue request: orig is the displaced value box, and any thread can
// finish the donation — commit (cell → taken) if the request took this
// cell, revert (cell → orig) if the request was answered elsewhere.
type cellBox[T any] struct {
	v    T
	req  *deqReq[T]
	orig *cellBox[T]
}

// deqReq is a slow dequeue request: done is nil while open, the
// delivered value box once served, or the queue-level empty box when the
// request observed a validated empty queue.
type deqReq[T any] struct {
	done atomic.Pointer[cellBox[T]]
}

// sealed-word states. The word moves sealOpen → sealPending → capacity
// (>= 0) and never backwards; see segment.seal for why the intermediate
// pending state is what makes the capacity safe.
const (
	sealOpen    = -1 // ring accepts deposits
	sealPending = -2 // seal won, capacity not yet published
)

// segment is one FAA ring: faaq's cell array and ticket counters plus
// the seal word that closes a ring early when a slow enqueue must
// guarantee nothing can be deposited behind its announced ring.
type segment[T any] struct {
	deqIdx atomic.Int64
	_      [2*pad.CacheLine - 8]byte
	enqIdx atomic.Int64
	_      [2*pad.CacheLine - 8]byte
	// sealed is sealOpen while the ring accepts deposits, sealPending
	// during the two-phase seal, and the ring's effective capacity once
	// published. Monotone (open → pending → capacity, each by CAS).
	sealed atomic.Int64
	_      [2*pad.CacheLine - 8]byte
	cells  []atomic.Pointer[cellBox[T]]
}

func newSegment[T any](size int) *segment[T] {
	s := &segment[T]{cells: make([]atomic.Pointer[cellBox[T]], size)}
	s.sealed.Store(sealOpen)
	return s
}

// size is the ring's cell count: the queue's segment size for rings
// built by the single-op slow path, the chunk length for batch rings.
func (s *segment[T]) size() int64 { return int64(len(s.cells)) }

// capLimit returns the ring's effective capacity once it is closed to
// deposits (sealed, or naturally full), and -1 while the capacity is not
// yet determined (open, or seal pending with enqIdx still below the
// ring's size). Monotone: once a non-negative limit is returned it never
// changes — a published capacity is write-once, and natural fullness
// reports the size only when it is provably the final capacity (enqIdx
// is monotone, so any capacity published later is min(enqIdx', size) =
// size too).
func (s *segment[T]) capLimit() int64 {
	if sl := s.sealed.Load(); sl >= 0 {
		return sl
	}
	if s.enqIdx.Load() >= s.size() {
		return s.size()
	}
	return -1
}

// seal closes the ring to deposits and returns its effective capacity.
// Two-phase: CAS sealed open→pending, THEN load enqIdx, then publish
// min(enqIdx, size) as the capacity (pending→capacity; racing callers
// help, first publish wins). won reports winning the first CAS.
//
// Safety argument (FIFO across the fast/slow boundary): the capacity is
// enqIdx loaded *after* the open→pending CAS. A fast enqueuer re-checks
// sealed after its FAA and deposits only if it reads sealOpen (or a
// published capacity above its ticket). Reading sealOpen means the read
// — and therefore the FAA before it — preceded the open→pending CAS,
// which precedes every capacity-determining enqIdx load, so the
// published capacity strictly exceeds that ticket: no deposit is ever
// stranded at or above the capacity. Conversely an enqueuer whose
// re-check sees pending or a capacity at/below its ticket abandons the
// ticket (the cell is poisoned by a dequeuer) and moves on to a later
// ring. Either way, nothing can be deposited behind a ring announced
// after seal returns. (A single pre-load CAS would leave a window: a
// ticket drawn after the load but checking sealed before the CAS lands
// could deposit at/above the capacity and be silently dropped when the
// drained ring is removed.)
func (s *segment[T]) seal() (capacity int64, won bool) {
	for {
		sl := s.sealed.Load()
		if sl >= 0 {
			return sl, won
		}
		if sl == sealOpen {
			if !s.sealBegin() {
				continue
			}
			won = true
		}
		s.sealPublish()
	}
}

// sealBegin is seal's first phase: the open→pending transition. Reports
// whether this caller won it.
func (s *segment[T]) sealBegin() bool {
	return s.sealed.CompareAndSwap(sealOpen, sealPending)
}

// sealPublish is seal's second phase: load enqIdx — necessarily after
// the open→pending transition — and publish min(enqIdx, size) as the
// capacity. Any thread that observed pending may publish (first CAS
// wins; every candidate capacity is safe because every candidate load
// follows the transition), so a winner parked between the phases blocks
// nobody. Returns the published capacity.
func (s *segment[T]) sealPublish() int64 {
	e := min(s.enqIdx.Load(), s.size())
	s.sealed.CompareAndSwap(sealPending, e)
	return s.sealed.Load()
}

// statsSlot is one thread's fast/slow accounting stripe. Written only by
// its owning slot; read racily (atomics) by AccountInto.
type statsSlot struct {
	fastEnq     atomic.Int64 // enqueues completed by deposit CAS
	fastDeq     atomic.Int64 // dequeues completed by ticketed claim
	enqFallback atomic.Int64 // enqueues that announced a ring
	deqFallback atomic.Int64 // dequeues that joined the front march
	wasted      atomic.Int64 // tickets burnt on poisoned/consumed cells
	rings       atomic.Int64 // ring segments allocated
	seals       atomic.Int64 // seal CASes won
	_           [2*pad.CacheLine - 56]byte
}

// cacheSlot caches, per thread, which node each of the thread's hazard
// slots currently protects. The fast paths leave protections published
// after an operation (stale protections only pin nodes, never admit
// them), so when the next operation sees the same tail/head/front
// pointer it skips the ProtectPtr store-fence-revalidate sequence — the
// dominant cost of the uncontended fast path. The invariant is purely
// physical — cache field == the pointer sitting in the hazard slot,
// recorded only after a validated protect — so it survives slot handoff
// as long as every code path that overwrites a slot (the consensus
// engines, the march, slot release) also invalidates the cache entry.
// Owner-only plain fields.
type cacheSlot[T any] struct {
	tail  *node[T] // hazard slot hpTail holds this node
	head  *node[T] // hazard slot hpHead holds this node
	front *node[T] // hazard slot hpNext holds this node
	_     [pad.CacheLine - 24]byte
}

// Queue is the TurnPlus MPMC queue for up to MaxThreads registered
// threads.
type Queue[T any] struct {
	maxThreads int
	segSize    int
	patience   int

	// enq and deq are the shared turn-consensus engines, operating at
	// ring granularity: Announce installs a ring node, DequeueOne
	// (claim-guarded to drained rings) removes one.
	enq consensus.Enq[*segment[T]]
	deq consensus.Deq[*segment[T]]

	// rc is the ring-node reclamation backend; hp aliases it when the
	// backend is hazard (the default), nil otherwise. clearPerOp is set
	// for the region backends (epoch, qsbr): their Protect must run on
	// every operation — a protection-cache hit would skip the region
	// entry — and the region must end when the operation does, so the
	// caches stay disabled and each fast-path return clears.
	rc         reclaim.Reclaimer[node[T]]
	hp         *hazard.Domain[node[T]]
	backend    reclaim.Kind
	clearPerOp bool
	rt         *qrt.Runtime

	// taken poisons a cell (faaq's tombstone); emptyBox answers a slow
	// request that observed a validated empty queue.
	taken    *cellBox[T]
	emptyBox *cellBox[T]

	// slowDeq gates the fast dequeue path: while any slow dequeue
	// request is open, fast dequeuers stop drawing tickets and join the
	// march instead, so the front is resolved strictly in cell order.
	slowDeq atomic.Int64
	_       [2*pad.CacheLine - 8]byte

	deqReqs []pad.PointerSlot[deqReq[T]]
	scratch [][]*deqReq[T] // per-thread snapshot buffers for answerEmpty

	stats  []statsSlot
	caches []cacheSlot[T]

	// slowOver counts front-march loops that exceeded the structural
	// maxThreads+segSize+1 bound (see DESIGN.md §1f).
	slowOver pad.Int64Slot
}

// Option configures a Queue.
type Option func(*config)

type config struct {
	maxThreads int
	segSize    int
	patience   int
	backend    reclaim.Kind
}

// WithMaxThreads sets the registered-thread bound.
func WithMaxThreads(n int) Option { return func(c *config) { c.maxThreads = n } }

// WithSegmentSize sets the cells-per-ring count.
func WithSegmentSize(n int) Option { return func(c *config) { c.segSize = n } }

// WithPatience sets the fast-path attempt bound per operation.
func WithPatience(n int) Option { return func(c *config) { c.patience = n } }

// WithBackend selects the ring-node reclamation backend (default
// reclaim.KindHazard). The region backends (epoch, qsbr) disable the
// fast-path protection caches — a cache hit would skip the region entry —
// and clear per operation; hazard and eras keep the caches (a standing
// reservation still covers the cached node, and Go's GC rules out address
// reuse of a pinned ring node).
func WithBackend(k reclaim.Kind) Option { return func(c *config) { c.backend = k } }

// New creates an empty queue. The first enqueue announces the first ring
// through the consensus slow path; everything after that runs fast until
// a ring fills or a thread runs out of patience.
func New[T any](opts ...Option) *Queue[T] {
	cfg := config{maxThreads: qrt.DefaultMaxThreads, segSize: DefaultSegmentSize,
		patience: DefaultPatience, backend: reclaim.KindHazard}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxThreads <= 0 || cfg.segSize <= 0 || cfg.patience <= 0 {
		panic(fmt.Sprintf("turnplus: invalid config maxThreads=%d segSize=%d patience=%d",
			cfg.maxThreads, cfg.segSize, cfg.patience))
	}
	if !cfg.backend.Valid() {
		panic(fmt.Sprintf("turnplus: unknown reclamation backend %q", cfg.backend))
	}
	q := &Queue[T]{
		maxThreads: cfg.maxThreads,
		segSize:    cfg.segSize,
		patience:   cfg.patience,
		backend:    cfg.backend,
		taken:      &cellBox[T]{},
		emptyBox:   &cellBox[T]{},
		rt:         qrt.New(cfg.maxThreads),
		deqReqs:    make([]pad.PointerSlot[deqReq[T]], cfg.maxThreads),
		scratch:    make([][]*deqReq[T], cfg.maxThreads),
		stats:      make([]statsSlot, cfg.maxThreads),
		caches:     make([]cacheSlot[T], cfg.maxThreads),
	}
	// Ring nodes are never pooled; retirement drops the node's segment
	// reference and the GC reclaims both once the hazard domain releases
	// the node. This is the "hazard-protected segment retirement": every
	// fast-path access to a segment happens under a hazard pointer on the
	// node that carries it.
	deleter := func(_ int, nd *node[T]) { nd.ClearItem() }
	switch cfg.backend {
	case reclaim.KindHazard:
		q.hp = hazard.New[node[T]](cfg.maxThreads, numHPs, deleter, hazard.WithActiveSet(q.rt))
		q.rc = q.hp
	case reclaim.KindEpoch:
		q.rc = epoch.New[node[T]](cfg.maxThreads, deleter)
		q.clearPerOp = true
	case reclaim.KindQSBR:
		q.rc = qsbr.New[node[T]](cfg.maxThreads, deleter, qsbr.WithActiveSet(q.rt))
		q.clearPerOp = true
	case reclaim.KindEras:
		q.rc = eras.New[node[T]](cfg.maxThreads, numHPs, deleter, (*node[T]).Tag,
			eras.WithActiveSet(q.rt))
	}
	// On release the slot's protections stop being visible to the scan
	// (WithActiveSet), so the physical cache invariant breaks: reset it
	// before the slot can be re-acquired.
	q.rt.OnRelease(func(slot int) {
		q.caches[slot] = cacheSlot[T]{}
		q.rc.DrainThread(slot)
	})
	sentinel := consensus.NewSentinel[*segment[T]]()
	q.enq.Init(q.rt, q.rc, hpTail, sentinel)
	q.deq.Init(q.rt, q.rc, hpHead, hpNext, hpDeq, q.enq.TailPtr(), sentinel)
	// Ring removal claims only drained rings. The guard is monotone per
	// node (capLimit and deqIdx are), which SetClaimGuard requires; a
	// recycled node never re-enters the list, so the guard never sees a
	// cleared item on a live successor.
	q.deq.SetClaimGuard(func(nd *node[T]) bool {
		seg := nd.Item()
		if seg == nil {
			return false
		}
		cl := seg.capLimit()
		return cl >= 0 && seg.deqIdx.Load() >= cl
	})
	return q
}

// MaxThreads returns the registered-thread bound.
func (q *Queue[T]) MaxThreads() int { return q.maxThreads }

// Runtime returns the queue's per-thread runtime.
func (q *Queue[T]) Runtime() *qrt.Runtime { return q.rt }

// Hazard exposes the ring-node hazard domain (tests, accounting). Nil
// unless the backend is reclaim.KindHazard.
func (q *Queue[T]) Hazard() *hazard.Domain[node[T]] { return q.hp }

// Backend returns the reclamation backend the queue was built with.
func (q *Queue[T]) Backend() reclaim.Kind { return q.backend }

// Reclaimer exposes the ring-node reclamation backend through the
// generic seam (conformance suite, X12 harness).
func (q *Queue[T]) Reclaimer() reclaim.Reclaimer[node[T]] { return q.rc }

// DrainReclaim force-drains every ring-node retire list (queue Close).
func (q *Queue[T]) DrainReclaim() { q.rc.DrainAll() }

// ReclaimPressure reports the ring-node backend's retired backlog
// against its structural bound (bounded=false for epoch/QSBR). Cheap
// enough for the service breaker to sample on the request path.
func (q *Queue[T]) ReclaimPressure() (backlog, bound int, bounded bool) {
	backlog = q.rc.Backlog()
	bound, bounded = q.rc.Bound()
	return
}

// OverrunStats reports consensus helping loops and front-march loops
// that exceeded their structural bounds (maxThreads+1 for the engines,
// maxThreads+segSize+1 for the march).
func (q *Queue[T]) OverrunStats() (enq, deq int64) {
	return q.enq.Overruns(), q.deq.Overruns() + q.slowOver.V.Load()
}

// Stats returns the summed fast/slow counters: fast-path completions,
// slow-path fallbacks, wasted tickets, and rings allocated.
func (q *Queue[T]) Stats() (fastEnq, fastDeq, enqFallbacks, deqFallbacks, wasted, rings int64) {
	for i := range q.stats {
		s := &q.stats[i]
		fastEnq += s.fastEnq.Load()
		fastDeq += s.fastDeq.Load()
		enqFallbacks += s.enqFallback.Load()
		deqFallbacks += s.deqFallback.Load()
		wasted += s.wasted.Load()
		rings += s.rings.Load()
	}
	return
}

// AccountInto appends the hazard-domain view, the overrun counters, and
// the fast/slow counters to s (the account.Source contract).
func (q *Queue[T]) AccountInto(s *account.Snapshot) {
	q.rc.AccountInto(s, "rings")
	s.EnqOverruns, s.DeqOverruns = q.OverrunStats()
	fastEnq, fastDeq, enqFb, deqFb, wasted, rings := q.Stats()
	var seals int64
	for i := range q.stats {
		seals += q.stats[i].seals.Load()
	}
	s.Counter("fast_enq_hits", fastEnq)
	s.Counter("fast_deq_hits", fastDeq)
	s.Counter("enq_fallbacks", enqFb)
	s.Counter("deq_fallbacks", deqFb)
	s.Counter("wasted_tickets", wasted)
	s.Counter("ring_allocs", rings)
	s.Counter("ring_seals", seals)
}

// Enqueue appends item: at most patience fast deposit attempts, then the
// consensus slow path.
func (q *Queue[T]) Enqueue(threadID int, item T) {
	qrt.CheckSlot(threadID, q.maxThreads)
	q.rt.EnsureActive(threadID)
	b := &cellBox[T]{v: item}
	st := &q.stats[threadID]
	c := &q.caches[threadID]
	for attempt := 0; attempt < q.patience; attempt++ {
		tn := q.enq.Tail()
		if tn != c.tail {
			var ok bool
			tn, ok = q.protect(hpTail, threadID, q.enq.TailPtr())
			if !ok {
				c.tail = nil
				continue
			}
			if !q.clearPerOp {
				c.tail = tn
			}
		}
		seg := tn.Item()
		if seg == nil {
			break // list sentinel: no ring yet, announce the first one
		}
		if cl := seg.capLimit(); cl >= 0 {
			// Tail ring closed to deposits: help the tail past an
			// installed successor, or announce our own ring.
			if lnext := tn.Next(); lnext != nil {
				q.enq.HelpTailPast(tn, lnext)
				continue
			}
			break
		}
		t := seg.enqIdx.Add(1) - 1
		if t >= seg.size() {
			continue // ring filled under us
		}
		if sl := seg.sealed.Load(); sl != sealOpen && (sl == sealPending || t >= sl) {
			// Sealed (or sealing) under us with a capacity that is — or
			// may turn out to be — at or below this ticket: abandon it.
			// Only a ticket that reads sealOpen here provably predates
			// the seal's capacity load (see segment.seal).
			continue
		}
		if tn.Next() != nil {
			// A successor ring was installed before this ticket was drawn:
			// depositing would order the item ahead of enqueues that have
			// already linearized in the successor. Abandon the ticket (a
			// dequeuer poisons the cell) and re-read the tail. If instead
			// the successor lands after this check, the FAA above predates
			// the install and is a valid linearization point, so the
			// deposit is safe.
			continue
		}
		// Fault point: ticket drawn, deposit pending. A thread parked
		// here strands nothing — a dequeuer reaching the cell poisons it
		// and this deposit CAS then fails.
		inject.Fire(inject.CoreFastClaim)
		if seg.cells[t].CompareAndSwap(nil, b) {
			// The tail protection stays published (and cached): it only
			// pins this ring node until the next protect overwrites it.
			// Region backends instead end their region with the operation.
			st.fastEnq.Add(1)
			if q.clearPerOp {
				q.rc.Clear(threadID)
			}
			return
		}
		st.wasted.Add(1) // a dequeuer poisoned our cell first
	}
	// Fault point: fast path exhausted, nothing published yet.
	inject.Fire(inject.CoreFastFallback)
	q.sealTail(threadID, st)
	seg := newSegment[T](q.segSize)
	seg.enqIdx.Store(1)
	seg.cells[0].Store(b)
	nd := new(node[T])
	nd.Reset(seg, int32(threadID))
	if q.hp == nil {
		q.rc.NoteAlloc(threadID, nd)
	}
	st.rings.Add(1)
	st.enqFallback.Add(1)
	q.enq.Announce(threadID, nd, false)
	// Announce protects with hpTail and ends with hp.Clear, which nulls
	// every slot of this thread — head/front included.
	q.caches[threadID] = cacheSlot[T]{}
}

// EnqueueBatch appends items as one atomic run: rings pre-filled with
// the batch, their nodes privately chained, and the whole chain
// installed through a single consensus announce — the same all-or-
// nothing chain install the plain Turn queue uses for batches, here at
// ring granularity. Each ring holds min(k, segSize) cells, so a batch
// allocates in proportion to its length, not to the segment size; the
// price is that a single Enqueue arriving right after a batch finds the
// tail ring full and takes the slow path once.
func (q *Queue[T]) EnqueueBatch(threadID int, items []T) {
	if len(items) == 0 {
		return
	}
	qrt.CheckSlot(threadID, q.maxThreads)
	q.rt.EnsureActive(threadID)
	st := &q.stats[threadID]
	q.sealTail(threadID, st)
	var first, last *node[T]
	for off := 0; off < len(items); off += q.segSize {
		chunk := items[off:min(off+q.segSize, len(items))]
		// The ring is sized to its chunk and born full, so it never takes
		// a fast deposit; its boxes share one backing array.
		seg := newSegment[T](len(chunk))
		boxes := make([]cellBox[T], len(chunk))
		for i, v := range chunk {
			boxes[i].v = v
			seg.cells[i].Store(&boxes[i])
		}
		seg.enqIdx.Store(int64(len(chunk)))
		st.rings.Add(1)
		nd := new(node[T])
		nd.Reset(seg, int32(threadID))
		q.rc.NoteAlloc(threadID, nd)
		if first == nil {
			first = nd
		} else {
			last.SetNext(nd)
		}
		last = nd
	}
	st.enqFallback.Add(1)
	if first == last {
		q.enq.Announce(threadID, first, false)
	} else {
		consensus.LinkChain(first, last)
		q.enq.Announce(threadID, last, true)
	}
	// Announce ends with hp.Clear, which nulls every slot of this thread.
	q.caches[threadID] = cacheSlot[T]{}
}

// sealTail closes the current tail ring to deposits so that nothing can
// land behind a ring the caller is about to announce. When two slow
// enqueues race here, both seal the same old tail and the first ring
// announced ends up open mid-list; that ring receives no further
// deposits (the fast path validates tn.Next() == nil after its FAA) and
// the dequeue side seals it on sight once exhausted, so it cannot
// strand anything. Sealing a stale tail is always safe — seal only ever
// closes a ring.
//
// The tail node is read under the hpTail hazard pointer: once a ring
// drains and its node is retired, the deleter clears the node's item, so
// an unprotected tn.Item() races that write. A protect that fails
// validation means the tail moved past the loaded node — which therefore
// has a successor — and the attempt is retried on the new tail, at most
// patience times; if the tail keeps moving, every ring it passed has a
// successor and is the mid-list case above, so skipping the seal is
// safe too. The protect overwrites hpTail, so the thread's cached tail
// entry is invalidated.
func (q *Queue[T]) sealTail(threadID int, st *statsSlot) {
	q.caches[threadID].tail = nil
	for attempt := 0; attempt < q.patience; attempt++ {
		tn, ok := q.protect(hpTail, threadID, q.enq.TailPtr())
		if !ok {
			continue
		}
		if seg := tn.Item(); seg != nil {
			if _, won := seg.seal(); won {
				st.seals.Add(1)
			}
		}
		return
	}
}

// Dequeue removes the item at the head, or reports ok=false when the
// queue is (validatedly) empty: at most patience fast ticket attempts
// while no slow request is open, then the cooperative front march.
func (q *Queue[T]) Dequeue(threadID int) (item T, ok bool) {
	qrt.CheckSlot(threadID, q.maxThreads)
	q.rt.EnsureActive(threadID)
	st := &q.stats[threadID]
	if q.slowDeq.Load() == 0 {
		for attempt := 0; attempt < q.patience; attempt++ {
			v, ok, decided := q.fastDequeue(threadID, st)
			if decided {
				if ok {
					st.fastDeq.Add(1)
				}
				if q.clearPerOp {
					q.rc.Clear(threadID)
				}
				return v, ok
			}
			if q.slowDeq.Load() != 0 {
				break
			}
		}
	}
	// Fault point: about to publish a slow dequeue request; nothing
	// published yet.
	inject.Fire(inject.CoreFastFallback)
	st.deqFallback.Add(1)
	return q.dequeueSlow(threadID, st)
}

// fastDequeue is one bounded fast-path attempt. decided=true means the
// operation finished (ok distinguishes a value from a validated empty);
// decided=false means the attempt was spent (wasted ticket, ring churn)
// and the caller should retry or fall back.
func (q *Queue[T]) fastDequeue(threadID int, st *statsSlot) (item T, ok, decided bool) {
	var zero T
	c := &q.caches[threadID]
	lhead := q.deq.Head()
	if lhead != c.head {
		var ok bool
		lhead, ok = q.protect(hpHead, threadID, q.deq.HeadPtr())
		if !ok {
			c.head = nil
			return zero, false, false
		}
		if !q.clearPerOp {
			c.head = lhead
		}
	}
	fr := lhead.Next()
	if fr == nil {
		// No rings while lhead was (still is) the head: the Turn queue's
		// own empty condition at ring granularity.
		if q.deq.Head() != lhead {
			return zero, false, false
		}
		return zero, false, true
	}
	if fr != c.front {
		var ok bool
		fr, ok = q.protect(hpNext, threadID, lhead.NextPtr())
		if !ok || fr == nil || q.deq.Head() != lhead {
			c.front = nil
			return zero, false, false
		}
		if !q.clearPerOp {
			c.front = fr
		}
	}
	seg := fr.Item()
	d := seg.deqIdx.Load()
	cl := seg.capLimit()
	if cl >= 0 && d >= cl {
		// Front ring drained and closed: remove it through the guarded
		// consensus engine, then retry.
		q.removeRing(threadID)
		return zero, false, false
	}
	if cl < 0 && d >= seg.enqIdx.Load() {
		if fr.Next() != nil {
			// An exhausted open ring that is no longer the list tail: two
			// racing slow enqueues can leave one behind (both seal the old
			// tail, then both announce). Seal it so the removal path can
			// claim it, then retry.
			seg.seal()
			return zero, false, false
		}
		// Open tail ring with no undelivered deposits and no successor:
		// validate faaq-style and report empty.
		if seg.deqIdx.Load() >= seg.enqIdx.Load() && fr.Next() == nil && lhead == q.deq.Head() {
			return zero, false, true
		}
		return zero, false, false
	}
	t := seg.deqIdx.Add(1) - 1
	if cl2 := seg.capLimit(); cl2 >= 0 && t >= cl2 {
		return zero, false, false // ticket above a (possibly fresh) seal
	}
	// Fault point: dequeue ticket drawn, claim pending. A thread parked
	// here blocks nobody: the cell it abandons is resolved by whoever
	// reaches it (poison, claim, or march).
	inject.Fire(inject.CoreFastClaim)
	for i := 0; ; i++ {
		if i == q.maxThreads+1 {
			q.slowOver.V.Add(1)
		}
		if i == hardIterCap {
			panic("turnplus: fast claim loop exceeded hard cap; queue invariant violated")
		}
		cb := seg.cells[t].Load()
		switch {
		case cb == nil:
			// Ticket outran the deposit: poison the cell, waste the
			// ticket (faaq's protocol — the enqueuer retries elsewhere).
			if seg.cells[t].CompareAndSwap(nil, q.taken) {
				st.wasted.Add(1)
				return zero, false, false
			}
		case cb == q.taken:
			// Consumed by the slow-path march racing this ticket.
			st.wasted.Add(1)
			return zero, false, false
		case cb.req != nil:
			// A parked donation: help it finish, then re-read.
			q.resolveClaim(seg, t, cb)
		default:
			if seg.cells[t].CompareAndSwap(cb, q.taken) {
				return cb.v, true, true
			}
		}
	}
}

// removeRing removes the drained front ring through the consensus
// engine. The claim guard guarantees the engine only ever assigns
// drained rings, and a parked remover cannot block anyone: helpers both
// assign the ring and advance the head on its behalf.
func (q *Queue[T]) removeRing(threadID int) {
	_, ok, prReq := q.deq.DequeueOne(threadID)
	q.caches[threadID] = cacheSlot[T]{} // engine + Clear trample every slot
	q.clearHP(threadID)
	if ok {
		// The two-generation retire chain from the paper's §2.4, at ring
		// granularity: prReq is the ring node that has just left both
		// request arrays.
		if q.hp != nil {
			q.hp.Retire(threadID, prReq)
		} else {
			q.rc.Retire(threadID, prReq)
		}
	}
}

// resolveClaim finishes a reversible claim box: commit the cell to taken
// if the request took this cell's value, or restore the displaced value
// box if the request was answered elsewhere. Any thread may call this on
// any claim box it observes; the done-CAS makes the outcome unique.
func (q *Queue[T]) resolveClaim(seg *segment[T], i int64, cb *cellBox[T]) {
	if cb.req.done.CompareAndSwap(nil, cb.orig) || cb.req.done.Load() == cb.orig {
		seg.cells[i].CompareAndSwap(cb, q.taken)
	} else {
		seg.cells[i].CompareAndSwap(cb, cb.orig)
	}
}

// dequeueSlow publishes a request and marches the front until the
// request is answered. The march bound is structural — every iteration
// either resolves a cell, helps a consensus round, or observes someone
// else's progress — so loops beyond maxThreads+segSize+1 iterations are
// counted as overruns rather than trusted.
func (q *Queue[T]) dequeueSlow(threadID int, st *statsSlot) (item T, ok bool) {
	var zero T
	req := &deqReq[T]{}
	q.deqReqs[threadID].P.Store(req)
	q.slowDeq.Add(1)
	// Fault point: request published, march not yet entered — helpers
	// must answer a parked requester.
	inject.Fire(inject.CoreDeqOpen)
	bound := q.maxThreads + q.segSize + 1
	for i := 0; req.done.Load() == nil; i++ {
		if i == bound {
			q.slowOver.V.Add(1)
		}
		if i == hardIterCap {
			panic("turnplus: front march exceeded hard cap; queue invariant violated")
		}
		q.marchStep(threadID)
	}
	q.deqReqs[threadID].P.Store(nil)
	q.slowDeq.Add(-1)
	q.caches[threadID] = cacheSlot[T]{} // the march trampled the deq slots
	q.clearHP(threadID)
	b := req.done.Load()
	if b == q.emptyBox {
		return zero, false
	}
	return b.v, true
}

// marchStep performs one step of the cooperative front march: resolve
// the frontmost cell of the front ring on behalf of the oldest open
// request, or remove a drained ring, or answer every snapshotted open
// request with a validated empty.
func (q *Queue[T]) marchStep(threadID int) {
	inject.Fire(inject.CoreDeqHelp)
	lhead, ok := q.protect(hpHead, threadID, q.deq.HeadPtr())
	if !ok {
		return
	}
	fr, ok := q.protect(hpNext, threadID, lhead.NextPtr())
	if !ok || lhead != q.deq.Head() {
		return
	}
	if fr == nil {
		q.answerEmpty(threadID, func() bool {
			return lhead == q.deq.Head() && lhead.Next() == nil
		})
		return
	}
	seg := fr.Item()
	d := seg.deqIdx.Load()
	cl := seg.capLimit()
	if cl >= 0 && d >= cl {
		q.removeRing(threadID)
		return
	}
	e := seg.enqIdx.Load()
	if d >= e {
		// Open ring, nothing undelivered. (A closed ring cannot be here:
		// its capacity never exceeds its ticket count, so d >= e implies
		// d >= capacity — the removal branch above.)
		if fr.Next() == nil {
			q.answerEmpty(threadID, func() bool {
				return seg.deqIdx.Load() >= seg.enqIdx.Load() &&
					fr.Next() == nil && lhead == q.deq.Head()
			})
		} else {
			// Exhausted open ring mid-list (racing slow enqueues): seal it
			// so the removal branch can claim it on the next step.
			seg.seal()
		}
		return
	}
	// Resolve the front cell. deqIdx only advances past terminal (taken)
	// cells, so the march delivers values strictly in cell order.
	c := seg.cells[d].Load()
	switch {
	case c == nil:
		if seg.cells[d].CompareAndSwap(nil, q.taken) {
			q.stats[threadID].wasted.Add(1)
		}
	case c == q.taken:
		seg.deqIdx.CompareAndSwap(d, d+1)
	case c.req != nil:
		q.resolveClaim(seg, d, c)
	default:
		target := q.oldestOpen(d)
		if target == nil {
			return
		}
		cb := &cellBox[T]{req: target, orig: c}
		if seg.cells[d].CompareAndSwap(c, cb) {
			// Fault point: claim box installed, commit pending — the
			// window the fastpath chaos scenario parks a thread in.
			inject.Fire(inject.CoreFastClaim)
			q.resolveClaim(seg, d, cb)
		}
	}
	if seg.cells[d].Load() == q.taken {
		seg.deqIdx.CompareAndSwap(d, d+1)
	}
}

// oldestOpen picks the open request to serve for front cell d. The scan
// start rotates with the cell index, so concurrent marchers at the same
// cell agree on one target and successive cells round-robin across
// requesters — the turn-fairness of the consensus layer, keyed to cell
// order instead of thread order.
func (q *Queue[T]) oldestOpen(d int64) *deqReq[T] {
	limit := q.rt.ActiveLimit()
	if limit <= 0 {
		return nil
	}
	start := int(d % int64(limit))
	for i := 0; i < limit; i++ {
		slot := start + i
		if slot >= limit {
			slot -= limit
		}
		if r := q.deqReqs[slot].P.Load(); r != nil && r.done.Load() == nil {
			return r
		}
	}
	return nil
}

// answerEmpty snapshots the currently open requests, re-validates the
// empty observation, and answers exactly the snapshotted requests. The
// snapshot-then-validate order matters: a request published after the
// validated instant must not receive this empty observation, because
// an enqueue may have linearized in between.
func (q *Queue[T]) answerEmpty(threadID int, revalidate func() bool) {
	reqs := q.scratch[threadID][:0]
	limit := q.rt.ActiveLimit()
	for i := 0; i < limit; i++ {
		if r := q.deqReqs[i].P.Load(); r != nil && r.done.Load() == nil {
			reqs = append(reqs, r)
		}
	}
	if revalidate() {
		for _, r := range reqs {
			r.done.CompareAndSwap(nil, q.emptyBox)
		}
	}
	for i := range reqs {
		reqs[i] = nil
	}
	q.scratch[threadID] = reqs[:0]
}

// protect and clearHP devirtualize the default hazard backend exactly
// like the consensus engines' helpers (see consensus.Enq.protect): an
// inlinable store+revalidate fast path for the common case, the
// out-of-line Reclaimer seam for the alternates.
func (q *Queue[T]) protect(index, tid int, src *atomic.Pointer[node[T]]) (*node[T], bool) {
	if q.hp != nil {
		nd := q.hp.ProtectPtr(index, tid, src.Load())
		return nd, src.Load() == nd
	}
	return protectSlow(q.rc, index, tid, src)
}

func (q *Queue[T]) clearHP(tid int) {
	if q.hp != nil {
		q.hp.Clear(tid)
		return
	}
	clearSlow(q.rc, tid)
}

// protectSlow and clearSlow keep the interface dispatch out of the
// inlinable fast-path helpers.
//
//go:noinline
func protectSlow[T any](rc reclaim.Reclaimer[node[T]], index, tid int, src *atomic.Pointer[node[T]]) (*node[T], bool) {
	return rc.Protect(index, tid, src)
}

//go:noinline
func clearSlow[T any](rc reclaim.Reclaimer[node[T]], tid int) {
	rc.Clear(tid)
}
