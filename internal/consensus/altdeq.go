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

// AltDeq is the alternative dequeue-side engine that §2.3 of the paper
// describes and rejects: instead of the deqself/deqhelp pair, a single
// `dequeuers` array of node pointers plus an open-request mark on the
// parked node itself (IdxOpen in deqTid, standing in for the paper's
// isRequest flag — see the Node doc). A request is open while the node
// currently parked in the thread's dequeuers entry carries IdxOpen;
// closing the request CASes the entry to the assigned node (whose deqTid
// is a claimed thread index by construction, never IdxOpen).
//
// The paper's objection, preserved here so it can be measured (ablation
// X5): the consensus scan must dereference each scanned entry to read
// its request mark, so searchNext needs a hazard-pointer publish +
// validate per entry — extra seq-cst stores on the dequeue hot path —
// where the two-array design compares two pointers without dereferencing
// anything.
type AltDeq[T any] struct {
	head atomic.Pointer[Node[T]]
	_    [2*pad.CacheLine - 8]byte

	dequeuers []pad.PointerSlot[Node[T]]

	tail       *atomic.Pointer[Node[T]]
	rt         *qrt.Runtime
	rc         reclaim.Reclaimer[Node[T]]
	hz         *hazard.Domain[Node[T]]
	hpHead     int
	hpNext     int
	hpDeq      int
	hpScan     int // the extra slot this design pays for (§2.3)
	maxThreads int

	overruns pad.Int64Slot
}

// Init mirrors Deq.Init for the single-array layout: each thread parks
// on a distinct dummy whose deqTid is IdxNone — all requests start
// closed.
func (d *AltDeq[T]) Init(rt *qrt.Runtime, rc reclaim.Reclaimer[Node[T]], hpHead, hpNext, hpDeq, hpScan int,
	tail *atomic.Pointer[Node[T]], sentinel *Node[T]) {
	d.rt = rt
	d.rc = rc
	d.hz, _ = rc.(*hazard.Domain[Node[T]])
	d.hpHead = hpHead
	d.hpNext = hpNext
	d.hpDeq = hpDeq
	d.hpScan = hpScan
	d.tail = tail
	d.maxThreads = rt.Capacity()
	d.dequeuers = make([]pad.PointerSlot[Node[T]], d.maxThreads)
	d.head.Store(sentinel)
	for i := 0; i < d.maxThreads; i++ {
		dummy := new(Node[T])
		dummy.deqTid.Store(IdxNone)
		d.dequeuers[i].P.Store(dummy)
	}
}

// Head returns the current head node (tests, diagnostics).
func (d *AltDeq[T]) Head() *Node[T] { return d.head.Load() }

// Overruns reports dequeue helping loops that exceeded the structural
// maxThreads+1 bound.
func (d *AltDeq[T]) Overruns() int64 { return d.overruns.V.Load() }

// DequeueOne is the single-array variant of Algorithm 3: open by marking
// the parked node, close by replacing the parked node with the assigned
// one. The caller clears the thread's hazard slots and retires prReq —
// here the previously parked node, which leaves the array the moment the
// request closes (this variant has no second array to keep it reachable
// through).
func (d *AltDeq[T]) DequeueOne(threadID int) (item T, ok bool, prReq *Node[T]) {
	myReq := d.dequeuers[threadID].P.Load()
	myReq.deqTid.Store(IdxOpen) // open our request
	inject.Fire(inject.CoreDeqOpen)
	for i := 0; d.dequeuers[threadID].P.Load() == myReq; i++ {
		inject.Fire(inject.CoreDeqHelp)
		if i == d.maxThreads+1 {
			d.overruns.V.Add(1)
		}
		if i == hardIterCap {
			panic("consensus: alt dequeue helping loop exceeded hard cap; queue invariant violated")
		}
		lhead, ok := d.protect(d.hpHead, threadID, &d.head)
		if !ok {
			continue
		}
		if lhead == d.tail.Load() {
			// Roll the request back to the parked node's claimed index,
			// never to IdxNone: the node was in the list, and a stale
			// helper still holding it as lnext would CasDeqTid it from
			// IdxNone to an open request — possibly its own, whose
			// casDeqAndHead then publishes this already-consumed node
			// unconditionally (a duplicate delivery that also strands
			// the helper's real item).
			myReq.deqTid.Store(int32(threadID))
			d.giveUp(myReq, threadID)
			if d.dequeuers[threadID].P.Load() != myReq {
				break // assigned despite the rollback: take the item
			}
			var zero T
			return zero, false, nil
		}
		lnext, ok := d.protect(d.hpNext, threadID, &lhead.next)
		if !ok || lhead != d.head.Load() {
			continue
		}
		if d.searchNext(threadID, lhead, lnext) != IdxNone {
			d.casDeqAndHead(lhead, lnext, threadID)
		}
	}
	myNode := d.dequeuers[threadID].P.Load()
	lhead, ok := d.protect(d.hpHead, threadID, &d.head)
	if ok && myNode == lhead.next.Load() {
		d.head.CompareAndSwap(lhead, myNode)
	}
	return myNode.item, true, myReq
}

// searchNext runs the dequeue-side turn consensus. Unlike the two-array
// comparison in Deq, deciding whether entry idDeq holds an open request
// requires dereferencing the parked node to read its mark — so each
// scanned entry costs a hazard-pointer publish and validation, the §2.3
// overhead this engine exists to exhibit.
func (d *AltDeq[T]) searchNext(threadID int, lhead, lnext *Node[T]) int32 {
	turn := int(lhead.deqTid.Load())
	if idDeq := d.nextOpenDeq(threadID, turn); idDeq >= 0 {
		if lnext.deqTid.Load() == IdxNone {
			lnext.CasDeqTid(IdxNone, int32(idDeq))
		}
	}
	if d.hz != nil {
		d.hz.ClearOne(d.hpScan, threadID)
	} else {
		d.rc.ClearOne(d.hpScan, threadID)
	}
	return lnext.deqTid.Load()
}

// nextOpenDeq finds the first open request in turn order after slot
// turn, or -1. Only active slots are visited — a dequeuer enters the
// active set before opening — so the per-entry HP publish is paid
// O(live) times, not O(maxThreads) times, though it remains the
// variant's defining cost.
func (d *AltDeq[T]) nextOpenDeq(threadID, turn int) int {
	limit := d.rt.ActiveLimit()
	if idx := d.scanOpenRange(threadID, turn+1, limit); idx >= 0 {
		return idx
	}
	return d.scanOpenRange(threadID, 0, turn+1)
}

// scanOpenRange probes active slots in [from, limit) for an open
// request, word-at-a-time like the other engines' scans. Each probe
// protects the parked node (hpScan), revalidates the entry, and reads
// the mark through the protected pointer.
func (d *AltDeq[T]) scanOpenRange(threadID, from, limit int) int {
	if from < 0 {
		from = 0
	}
	if n := len(d.dequeuers); limit > n {
		limit = n
	}
	for w := from >> 6; w<<6 < limit; w++ {
		word := d.rt.ActiveWord(w)
		if w == from>>6 {
			word &= ^uint64(0) << (uint(from) & 63)
		}
		for word != 0 {
			idx := w<<6 + bits.TrailingZeros64(word)
			if idx >= limit {
				return -1
			}
			word &= word - 1
			nd, ok := d.protect(d.hpScan, threadID, &d.dequeuers[idx].P)
			if !ok {
				continue // entry churned: that request was just served
			}
			if nd == nil || nd.deqTid.Load() != IdxOpen {
				continue // closed request
			}
			return idx
		}
	}
	return -1
}

// casDeqAndHead publishes lnext to its assigned thread's dequeuers entry
// and then advances the head. Publication is unconditional on the open
// mark: a rolled-back-but-claimed request must still receive its node
// (the owner's post-giveUp check picks it up), otherwise the claimed
// node's item would be unreachable — see the two-array version's
// Invariant 8/11 discussion.
func (d *AltDeq[T]) casDeqAndHead(lhead, lnext *Node[T], threadID int) {
	ldeqTid := lnext.deqTid.Load()
	if ldeqTid == int32(threadID) {
		d.dequeuers[ldeqTid].P.Store(lnext)
	} else if ldeqTid >= 0 {
		ldequeuer, ok := d.protect(d.hpDeq, threadID, &d.dequeuers[ldeqTid].P)
		if ok && ldequeuer != lnext && lhead == d.head.Load() {
			d.dequeuers[ldeqTid].P.CompareAndSwap(ldequeuer, lnext)
		}
	}
	// ldeqTid < 0: lnext's assignment round already completed — it was
	// published to its owner's dequeuers entry, the head advanced past
	// lhead, and the owner has since reused the node as its parked
	// request marker (IdxOpen while the request is open). A helper
	// holding the stale lhead/lnext pair can still read that sentinel
	// here, so it must not index dequeuers with it; the CAS below then
	// fails harmlessly against the advanced head. next pointers are write-once while a node is in the list, so
	// when lhead *is* still the head, lnext is still its successor and
	// the advance is correct.
	d.head.CompareAndSwap(lhead, lnext)
}

// giveUp mirrors §2.3.1 for the single-array layout.
func (d *AltDeq[T]) giveUp(myReq *Node[T], threadID int) {
	lhead := d.head.Load()
	if d.dequeuers[threadID].P.Load() != myReq {
		return
	}
	if lhead == d.tail.Load() {
		return
	}
	lh, ok := d.protect(d.hpHead, threadID, &d.head)
	if !ok || lh != lhead {
		return
	}
	lnext, ok := d.protect(d.hpNext, threadID, &lhead.next)
	if !ok || lhead != d.head.Load() {
		return
	}
	if d.searchNext(threadID, lhead, lnext) == IdxNone {
		lnext.CasDeqTid(IdxNone, int32(threadID))
	}
	d.casDeqAndHead(lhead, lnext, threadID)
}

// protect mirrors Enq.protect: an inlinable devirtualized fast path for
// the default hazard backend, the out-of-line Reclaimer seam otherwise.
func (d *AltDeq[T]) protect(index, tid int, src *atomic.Pointer[Node[T]]) (*Node[T], bool) {
	if d.hz != nil {
		node := d.hz.ProtectPtr(index, tid, src.Load())
		return node, src.Load() == node
	}
	return protectSlow(d.rc, index, tid, src)
}
