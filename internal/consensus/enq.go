package consensus

import (
	"math/bits"
	"sync/atomic"

	"turnqueue/internal/hazard"
	"turnqueue/internal/inject"
	"turnqueue/internal/pad"
	"turnqueue/internal/qrt"
	"turnqueue/internal/reclaim"
)

// hardIterCap is a defensive ceiling on the helping loops. The paper's
// bound is maxThreads iterations; reaching this cap instead means the
// implementation has corrupted an invariant, so we crash loudly rather
// than spin forever or return garbage.
const hardIterCap = 1 << 22

// Enq is the enqueue-side turn consensus engine: it owns the tail
// pointer and the per-thread announce array (the paper's enqueuers[]),
// and runs Algorithm 2's publish → help-until-done loop. Every
// Turn-family queue embeds one Enq by value — the full MPMC queue, the
// MPSC composition and the TurnPlus slow path — so the helping loop
// exists exactly once.
//
// The engine does not allocate: callers draw nodes from their own pools
// and hand the prepared request to Announce. The reclamation backend
// (reclaim.Reclaimer — the hazard domain historically, now any backend)
// is shared with the caller; the engine uses only the hpTail protection
// index it was initialized with and clears the caller's protections when
// the announce completes (safe because a thread runs one operation at a
// time).
type Enq[T any] struct {
	tail atomic.Pointer[Node[T]]
	_    [2*pad.CacheLine - 8]byte

	// enqueuers[i] non-nil publishes thread i's intent to enqueue that
	// node (the chain's last node for a batch request).
	enqueuers []pad.PointerSlot[Node[T]]

	rt         *qrt.Runtime
	rc         reclaim.Reclaimer[Node[T]]
	hz         *hazard.Domain[Node[T]]
	hpTail     int
	maxThreads int

	// overruns counts helping loops that needed more than maxThreads+1
	// iterations — the paper's maxThreads bound plus the one observation
	// iteration the loop-until-done exit adds (see Announce).
	overruns pad.Int64Slot
}

// Init wires the engine to its queue's runtime, reclamation backend, and
// protection slot index, and parks the initial sentinel in the tail.
func (e *Enq[T]) Init(rt *qrt.Runtime, rc reclaim.Reclaimer[Node[T]], hpTail int, sentinel *Node[T]) {
	e.rt = rt
	e.rc = rc
	e.hz, _ = rc.(*hazard.Domain[Node[T]])
	e.hpTail = hpTail
	e.maxThreads = rt.Capacity()
	e.enqueuers = make([]pad.PointerSlot[Node[T]], e.maxThreads)
	e.tail.Store(sentinel)
}

// Tail returns the current tail node (tests, diagnostics, and the
// single-producer fast path that bypasses the consensus).
func (e *Enq[T]) Tail() *Node[T] { return e.tail.Load() }

// TailPtr exposes the tail word itself, for the dequeue-side engine's
// emptiness check (head == tail) on queues that pair both engines.
func (e *Enq[T]) TailPtr() *atomic.Pointer[Node[T]] { return &e.tail }

// Announced returns thread threadID's currently published enqueue
// request, nil when none is pending (tests, diagnostics).
func (e *Enq[T]) Announced(threadID int) *Node[T] { return e.enqueuers[threadID].P.Load() }

// Overruns reports how many announce loops exceeded the structural
// maxThreads+1 bound before completing. The reproduction expects zero; a
// non-zero value would be evidence against the poster's
// wait-free-bounded claim under Go's scheduler.
func (e *Enq[T]) Overruns() int64 { return e.overruns.V.Load() }

// Announce publishes req as thread threadID's enqueue request and helps
// until it is installed — the paper's Algorithm 2, wait-free bounded:
// after publication at most maxThreads-1 other nodes can be inserted
// ahead of it (Invariant 5), so the loop completes in O(maxThreads)
// iterations. req must be prepared with Reset (and LinkChain for a
// batch, in which case req is the chain's last node and batch is true —
// the flag only selects which fault point fires in the publication
// window).
//
// Deviation from the paper's listing: Algorithm 2 runs the loop exactly
// maxThreads times and then nulls its own enqueuers entry, relying on
// Invariant 5 to conclude the node was inserted. We instead loop until
// the entry is observed nil — which by (a strengthened) Invariant 6
// happens only after the node reached the tail — and count iterations
// beyond the structural bound in Overruns. That bound is maxThreads+1,
// not maxThreads: the paper nulls its own entry after the loop, while
// here the clear is one more loop iteration (insert on iteration ≤
// maxThreads-1, observe-and-clear on the next), so one extra observation
// iteration is normal operation, not an overrun. On the paper's own
// argument iterations past that never execute; if an adversarial
// schedule ever exceeds the bound, this version keeps helping instead of
// silently cancelling an uninserted request, and the overrun becomes
// measurable.
func (e *Enq[T]) Announce(threadID int, req *Node[T], batch bool) {
	e.enqueuers[threadID].P.Store(req)
	if batch {
		inject.Fire(inject.CoreEnqBatchPublish)
	} else {
		inject.Fire(inject.CoreEnqPublish)
	}
	// Our request is complete when the entry is nulled by a helper (or by
	// ourselves, via the Invariant 7 clearing below) — which can happen
	// only once the node has been at the tail, i.e. inserted.
	for i := 0; e.enqueuers[threadID].P.Load() != nil; i++ {
		inject.Fire(inject.CoreEnqHelp)
		if i == e.maxThreads+1 {
			e.overruns.V.Add(1)
		}
		if i == hardIterCap {
			panic("consensus: enqueue helping loop exceeded hard cap; queue invariant violated")
		}
		ltail, ok := e.protect(e.hpTail, threadID, &e.tail)
		if !ok {
			continue // tail advanced: one enqueue completed; take next step
		}
		// The node at the tail was the last request satisfied; clear its
		// entry before helping the next request so it cannot be inserted
		// twice (Invariant 7).
		if e.enqueuers[ltail.enqTid].P.Load() == ltail {
			e.enqueuers[ltail.enqTid].P.CompareAndSwap(ltail, nil)
		}
		// Turn scan: the first non-null request to the right of the
		// current turn (the tail node's enqTid) is the one everybody
		// helps next. Only active slots are visited: a cleared occupancy
		// bit proves the entry was nil when the bit was read, so the
		// filtered scan is indistinguishable from the paper's full scan
		// (DESIGN.md §"Active-slot tracking").
		if nodeToHelp := e.nextRequest(int(ltail.enqTid)); nodeToHelp != nil {
			ltail.next.CompareAndSwap(nil, ChainFirst(nodeToHelp)) // Invariant 1
		}
		lnext := ltail.next.Load()
		if lnext != nil {
			e.tail.CompareAndSwap(ltail, ChainLast(lnext)) // Invariant 2
		}
	}
	e.clear(threadID)
}

// protect and clear dispatch to the concrete hazard domain when that is
// the backend — the default, whose per-call store+fence+revalidate must
// stay inlined in the helping loop (it was before the Reclaimer seam
// existed, and the interface call both blocks inlining and costs a
// dynamic dispatch). The nil check is a predictable branch; the
// alternates take the out-of-line Reclaimer path. The split keeps the
// fast path under the inline budget.
func (e *Enq[T]) protect(index, tid int, src *atomic.Pointer[Node[T]]) (*Node[T], bool) {
	if e.hz != nil {
		node := e.hz.ProtectPtr(index, tid, src.Load())
		return node, src.Load() == node
	}
	return protectSlow(e.rc, index, tid, src)
}

func (e *Enq[T]) clear(tid int) {
	if e.hz != nil {
		e.hz.Clear(tid)
		return
	}
	clearSlow(e.rc, tid)
}

// protectSlow and clearSlow are the interface-dispatch halves, kept out
// of line so the fast-path helpers stay inlinable.
//
//go:noinline
func protectSlow[T any](rc reclaim.Reclaimer[Node[T]], index, tid int, src *atomic.Pointer[Node[T]]) (*Node[T], bool) {
	return rc.Protect(index, tid, src)
}

//go:noinline
func clearSlow[T any](rc reclaim.Reclaimer[Node[T]], tid int) {
	rc.Clear(tid)
}

// HelpTailPast helps a lagging tail off lhead, jump-aware for batch
// chains: lnext may be the first node of a freshly installed chain, and
// parking the tail on a chain interior would break the invariant that
// the tail only ever rests on published request nodes. Used by consumers
// that advance the head past nodes whose enqueuer has not swung the tail
// yet (the MPSC composition's single consumer).
func (e *Enq[T]) HelpTailPast(lhead, lnext *Node[T]) {
	if e.tail.Load() == lhead {
		e.tail.CompareAndSwap(lhead, ChainLast(lnext))
	}
}

// nextRequest finds the first published enqueue request in turn order
// after slot turn: slots (turn, limit) ascending, then [0, turn] — the
// same circular order as the paper's `(j + enqTid) % maxThreads` scan,
// restricted to the active range. The requesting thread's own bit is set
// before it publishes (qrt.Runtime.Acquire/EnsureActive), so every scan
// that starts after a publication sees the request; the wait-free bound
// is unchanged.
func (e *Enq[T]) nextRequest(turn int) *Node[T] {
	limit := e.rt.ActiveLimit()
	if nd := e.scanRange(turn+1, limit); nd != nil {
		return nd
	}
	return e.scanRange(0, turn+1)
}

// scanRange probes the published enqueue requests of the active slots
// in [from, limit), ascending. The iteration walks the occupancy bitmap
// a word at a time (rt.ActiveWord inlines to a single load), so a dense
// sweep costs one extra load per 64 slots over the paper's plain loop
// while a sparse one skips empty words entirely.
func (e *Enq[T]) scanRange(from, limit int) *Node[T] {
	if from < 0 {
		from = 0
	}
	if n := len(e.enqueuers); limit > n {
		limit = n
	}
	for w := from >> 6; w<<6 < limit; w++ {
		word := e.rt.ActiveWord(w)
		if w == from>>6 {
			word &= ^uint64(0) << (uint(from) & 63)
		}
		for word != 0 {
			idx := w<<6 + bits.TrailingZeros64(word)
			if idx >= limit {
				return nil // set bits only ascend from here
			}
			word &= word - 1
			if nd := e.enqueuers[idx].P.Load(); nd != nil {
				return nd
			}
		}
	}
	return nil
}
