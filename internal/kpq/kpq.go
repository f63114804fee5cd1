// Package kpq implements the Kogan-Petrank wait-free MPMC queue (PPoPP
// '11), including the reclamation port the paper describes in §3.2: the
// original algorithm assumes a garbage collector (its artifact is Java);
// here it runs with Hazard Pointers for the descriptor lifecycle and
// Conditional Hazard Pointers for the node lifecycle, exactly the
// combination the paper contributes.
//
// Algorithm recap. Every thread has a slot in a state array holding an
// immutable operation descriptor (phase, pending, enqueue, node). An
// operation picks a phase greater than every phase it observes, installs a
// pending descriptor, then helps every pending operation with phase <= its
// own until its descriptor is no longer pending. The list manipulation
// underneath is Michael-Scott: link at tail, swing tail, claim the head's
// deqTid, swing head.
//
// Reclamation port (§3.2):
//   - Descriptors are replaced by CAS; the replaced descriptor is retired
//     with plain HP. Every CAS window protects the expected descriptor so
//     a pooled descriptor cannot ABA back into the same slot.
//   - Nodes are retired by the thread that advances the head past them,
//     with a CHP condition "the item has been taken": the dequeuer that
//     owns the value reaches it through the state array after the head has
//     already moved, so the node may be freed only once that dequeuer has
//     swapped the item out (the paper's Node.item = nullptr condition).
//   - Descriptor and node fields that survive into pools are atomic, so a
//     validation-failed reader that raced a recycle reads a stale value,
//     never tears.
//
// Memory profile: each operation allocates a fresh descriptor per state
// transition plus (for enqueue) a node and a boxed item — the allocation
// churn Table 4 charges KP for (>= 5 heap allocations per item), which
// this implementation reproduces when pooling is disabled.
package kpq

import (
	"fmt"
	"sync/atomic"

	"turnqueue/internal/account"
	"turnqueue/internal/hazard"
	"turnqueue/internal/inject"
	"turnqueue/internal/pad"
	"turnqueue/internal/qrt"
)

const idxNone int32 = -1

// Hazard-pointer slots for the node domain.
const (
	hpHead   = 0
	hpTail   = 1
	hpNext   = 2
	numNodeH = 3
)

// Hazard-pointer slots for the descriptor domain.
const (
	hpDesc   = 0
	numDescH = 1
)

// hardIterCap backstops the helping loops; see internal/core.
const hardIterCap = 1 << 22

// node is the KP queue node: Michael-Scott fields plus the enqueuer and
// dequeuer thread ids. The item is a boxed pointer so the §3.2 CHP
// condition "item taken" has a representable empty state, matching the
// paper's change of Node.item to std::atomic<>.
type node[T any] struct {
	item   atomic.Pointer[T]
	enqTid int32
	deqTid atomic.Int32
	next   atomic.Pointer[node[T]]
}

// opDesc is KP's operation descriptor. Logically immutable once published;
// the fields are atomic only so readers that lose a validation race with a
// pooled reuse read stale-but-sound values (see the package comment).
type opDesc[T any] struct {
	phase   atomic.Int64
	pending atomic.Bool
	enqueue atomic.Bool
	node    atomic.Pointer[node[T]]
}

// Queue is the KP wait-free MPMC queue for up to MaxThreads registered
// threads.
type Queue[T any] struct {
	maxThreads int

	head atomic.Pointer[node[T]]
	_    [2*pad.CacheLine - 8]byte
	tail atomic.Pointer[node[T]]
	_    [2*pad.CacheLine - 8]byte

	state []pad.PointerSlot[opDesc[T]]

	hpNode *hazard.Domain[node[T]]
	hpDesc *hazard.Domain[opDesc[T]]

	nodePool *qrt.Pool[node[T]]
	descPool *qrt.Pool[opDesc[T]]

	rt *qrt.Runtime
}

// Option configures a Queue.
type Option func(*config)

type config struct {
	maxThreads int
	pooling    bool
}

// WithMaxThreads sets the registered-thread bound.
func WithMaxThreads(n int) Option { return func(c *config) { c.maxThreads = n } }

// WithPooling recycles reclaimed nodes and descriptors through per-thread
// pools (default true). Disable to reproduce the original allocate-always
// behaviour when measuring allocation churn.
func WithPooling(on bool) Option { return func(c *config) { c.pooling = on } }

// New creates a KP queue.
func New[T any](opts ...Option) *Queue[T] {
	cfg := config{maxThreads: qrt.DefaultMaxThreads, pooling: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxThreads <= 0 {
		panic(fmt.Sprintf("kpq: maxThreads must be positive, got %d", cfg.maxThreads))
	}
	// A zero-capacity pool never retains anything, reproducing the
	// original allocate-always behaviour when pooling is disabled.
	cap := poolCap
	if !cfg.pooling {
		cap = 0
	}
	q := &Queue[T]{
		maxThreads: cfg.maxThreads,
		state:      make([]pad.PointerSlot[opDesc[T]], cfg.maxThreads),
		nodePool:   qrt.NewPool[node[T]](cfg.maxThreads, cap),
		descPool:   qrt.NewPool[opDesc[T]](cfg.maxThreads, cap),
		rt:         qrt.New(cfg.maxThreads),
	}
	q.hpNode = hazard.New[node[T]](cfg.maxThreads, numNodeH, q.recycleNode, hazard.WithActiveSet(q.rt))
	q.hpDesc = hazard.New[opDesc[T]](cfg.maxThreads, numDescH, q.recycleDesc, hazard.WithActiveSet(q.rt))
	// Drain-on-release for both domains. Safe off the owning goroutine:
	// the node domain's CHP condition reads only atomics (item pointer).
	q.rt.OnRelease(func(slot int) {
		q.hpNode.DrainThread(slot)
		q.hpDesc.DrainThread(slot)
	})

	sentinel := new(node[T]) // item nil: already "taken", deletable once retired
	sentinel.enqTid = -1
	sentinel.deqTid.Store(idxNone)
	q.head.Store(sentinel)
	q.tail.Store(sentinel)
	for i := range q.state {
		d := new(opDesc[T])
		d.phase.Store(-1)
		q.state[i].P.Store(d)
	}
	return q
}

// MaxThreads returns the registered-thread bound.
func (q *Queue[T]) MaxThreads() int { return q.maxThreads }

// Runtime returns the queue's per-thread runtime.
func (q *Queue[T]) Runtime() *qrt.Runtime { return q.rt }

// AllocStats reports cumulative descriptor and node heap allocations.
func (q *Queue[T]) AllocStats() (descs, nodes int64) {
	descs, _, _ = q.descPool.Stats()
	nodes, _, _ = q.nodePool.Stats()
	return descs, nodes
}

// AccountInto appends both hazard domains and both pools to s (the
// account.Source contract).
func (q *Queue[T]) AccountInto(s *account.Snapshot) {
	s.Hazard = append(s.Hazard,
		account.CaptureHazard("nodes", q.hpNode),
		account.CaptureHazard("descs", q.hpDesc))
	s.Pools = append(s.Pools,
		account.CapturePool("nodes", q.nodePool),
		account.CapturePool("descs", q.descPool))
}

const poolCap = 512

func (q *Queue[T]) recycleNode(threadID int, nd *node[T]) {
	q.nodePool.Put(threadID, nd)
}

func (q *Queue[T]) recycleDesc(threadID int, d *opDesc[T]) {
	q.descPool.Put(threadID, d)
}

func (q *Queue[T]) allocNode(threadID int, item *T) *node[T] {
	nd := q.nodePool.Get(threadID)
	if nd == nil {
		nd = new(node[T])
		q.nodePool.NoteAlloc()
	}
	nd.item.Store(item)
	nd.enqTid = int32(threadID)
	nd.deqTid.Store(idxNone)
	nd.next.Store(nil)
	return nd
}

func (q *Queue[T]) allocDesc(threadID int, phase int64, pending, enqueue bool, nd *node[T]) *opDesc[T] {
	d := q.descPool.Get(threadID)
	if d == nil {
		d = new(opDesc[T])
		q.descPool.NoteAlloc()
	}
	d.phase.Store(phase)
	d.pending.Store(pending)
	d.enqueue.Store(enqueue)
	d.node.Store(nd)
	return d
}

// maxPhase scans the active state slots for the largest announced phase.
// Reads are validated against the slot (one retry) so a pooled-descriptor
// reuse cannot leak a phase from a different role; a stale-but-validated
// phase only affects helping priority, never safety. Restricting the scan
// to active slots is safe for the same reason: a slot that has never been
// active still holds its initial phase -1 descriptor, and a released
// slot's stale phase could at worst have raised our announcement — which
// only affects helping priority.
func (q *Queue[T]) maxPhase() int64 {
	maxp := int64(-1)
	q.rt.ForActive(0, q.rt.ActiveLimit(), func(i int) bool {
		d := q.state[i].P.Load()
		ph := d.phase.Load()
		if q.state[i].P.Load() != d {
			d = q.state[i].P.Load()
			ph = d.phase.Load()
		}
		if ph > maxp {
			maxp = ph
		}
		return true
	})
	return maxp
}

func (q *Queue[T]) isStillPending(threadID int32, phase int64) bool {
	d := q.state[threadID].P.Load()
	return d.pending.Load() && d.phase.Load() <= phase
}

// installDesc publishes a new descriptor for the calling thread's own
// operation and retires the one it replaces.
func (q *Queue[T]) installDesc(threadID int, d *opDesc[T]) {
	old := q.state[threadID].P.Load()
	q.state[threadID].P.Store(d)
	q.hpDesc.Retire(threadID, old)
}

// casState replaces thread i's descriptor cur with next, retiring cur on
// success. The caller must have cur protected in hpDesc (the ABA window of
// the package comment).
func (q *Queue[T]) casState(helper int, i int32, cur, next *opDesc[T]) bool {
	if q.state[i].P.CompareAndSwap(cur, next) {
		q.hpDesc.Retire(helper, cur)
		return true
	}
	// next was built speculatively by the helper; it never became visible,
	// so it can go straight back to the helper's pool.
	q.recycleDesc(helper, next)
	return false
}

// Enqueue appends item. Wait-free: announce with a phase above every
// observed phase, then help until no longer pending.
func (q *Queue[T]) Enqueue(threadID int, item T) {
	qrt.CheckSlot(threadID, q.maxThreads)
	q.rt.EnsureActive(threadID)
	boxed := new(T)
	*boxed = item
	phase := q.maxPhase() + 1
	nd := q.allocNode(threadID, boxed)
	q.installDesc(threadID, q.allocDesc(threadID, phase, true, true, nd))
	// Fault point: the pending descriptor is installed but help() has
	// not run — a thread parked here relies on every other thread's
	// helping pass to complete its operation (KP's fairness mechanism).
	inject.Fire(inject.KPQInstall)
	q.help(threadID, phase)
	q.helpFinishEnq(threadID)
	q.hpNode.Clear(threadID)
	q.hpDesc.Clear(threadID)
}

// Dequeue removes the item at the head, or reports ok=false when empty.
func (q *Queue[T]) Dequeue(threadID int) (item T, ok bool) {
	qrt.CheckSlot(threadID, q.maxThreads)
	q.rt.EnsureActive(threadID)
	phase := q.maxPhase() + 1
	q.installDesc(threadID, q.allocDesc(threadID, phase, true, false, nil))
	inject.Fire(inject.KPQInstall)
	q.help(threadID, phase)
	q.helpFinishDeq(threadID)

	// Our completed descriptor's node field holds the node whose item we
	// own (nil for an empty-queue dequeue). The node may already be
	// retired — the §3.2 scenario — but CHP keeps it alive until the item
	// swap below, which both consumes the value and releases the node.
	d := q.state[threadID].P.Load()
	nd := d.node.Load()
	q.hpNode.Clear(threadID)
	q.hpDesc.Clear(threadID)
	if nd == nil {
		var zero T
		return zero, false
	}
	boxed := nd.item.Swap(nil)
	if boxed == nil {
		panic("kpq: dequeued node's item was already taken; ownership invariant violated")
	}
	return *boxed, true
}

// help makes every pending operation with phase <= phase complete before
// the caller's own operation can be considered stuck (KP's core fairness
// mechanism: the oldest announced phase is always being helped). Only
// active slots are visited: a descriptor becomes pending only after its
// owner entered the active set (Enqueue/Dequeue run EnsureActive before
// installDesc), and the caller's own slot is active, so every request
// that must be helped — including the caller's — is inside the scan.
func (q *Queue[T]) help(threadID int, phase int64) {
	q.rt.ForActive(0, q.rt.ActiveLimit(), func(i int) bool {
		// A failed validation must re-read, never skip the slot: helpers
		// replace a pending descriptor (rebinding a dequeue to a new head),
		// and if the caller skipped its own slot on such a change it would
		// return with its operation still pending and take the item of the
		// node its descriptor was bound to — a node already consumed. Each
		// failed validation means slot i's operation advanced.
		d, ok := q.hpDesc.Protect(hpDesc, threadID, &q.state[i].P)
		for !ok {
			d, ok = q.hpDesc.Protect(hpDesc, threadID, &q.state[i].P)
		}
		if !d.pending.Load() || d.phase.Load() > phase {
			return true
		}
		if d.enqueue.Load() {
			q.helpEnq(threadID, int32(i), phase)
		} else {
			q.helpDeq(threadID, int32(i), phase)
		}
		return true
	})
}

// helpEnq drives thread i's pending enqueue until it is linked into the
// list (the tail swing is completed by helpFinishEnq).
func (q *Queue[T]) helpEnq(helper int, i int32, phase int64) {
	for iter := 0; q.isStillPending(i, phase); iter++ {
		if iter == hardIterCap {
			panic("kpq: helpEnq exceeded hard cap; queue invariant violated")
		}
		last := q.hpNode.ProtectPtr(hpTail, helper, q.tail.Load())
		if last != q.tail.Load() {
			continue
		}
		next := last.next.Load()
		if next != nil {
			q.helpFinishEnq(helper)
			continue
		}
		if !q.isStillPending(i, phase) {
			return
		}
		d := q.hpDesc.ProtectPtr(hpDesc, helper, q.state[i].P.Load())
		if q.state[i].P.Load() != d || !d.pending.Load() || !d.enqueue.Load() {
			continue
		}
		nd := d.node.Load()
		if nd == nil {
			continue
		}
		if last.next.CompareAndSwap(nil, nd) {
			q.helpFinishEnq(helper)
			return
		}
	}
}

// helpFinishEnq completes the two-step enqueue: mark the owner's
// descriptor not pending, then swing the tail.
func (q *Queue[T]) helpFinishEnq(helper int) {
	last := q.hpNode.ProtectPtr(hpTail, helper, q.tail.Load())
	if last != q.tail.Load() {
		return
	}
	next := q.hpNode.ProtectPtr(hpNext, helper, last.next.Load())
	if last != q.tail.Load() || next == nil {
		return
	}
	i := next.enqTid
	if i >= 0 {
		cur := q.hpDesc.ProtectPtr(hpDesc, helper, q.state[i].P.Load())
		if q.state[i].P.Load() == cur && last == q.tail.Load() && cur.node.Load() == next {
			if cur.pending.Load() {
				nd := q.allocDesc(helper, cur.phase.Load(), false, true, next)
				q.casState(helper, i, cur, nd)
			}
		}
	}
	q.tail.CompareAndSwap(last, next)
}

// helpDeq drives thread i's pending dequeue: bind it to the current head,
// claim the head's successor via deqTid, and finish.
func (q *Queue[T]) helpDeq(helper int, i int32, phase int64) {
	for iter := 0; q.isStillPending(i, phase); iter++ {
		if iter == hardIterCap {
			panic("kpq: helpDeq exceeded hard cap; queue invariant violated")
		}
		first := q.hpNode.ProtectPtr(hpHead, helper, q.head.Load())
		if first != q.head.Load() {
			continue
		}
		last := q.tail.Load()
		next := q.hpNode.ProtectPtr(hpNext, helper, first.next.Load())
		if first != q.head.Load() {
			continue
		}
		if first == last {
			if next == nil {
				// Queue looks empty: complete the dequeue with node=nil.
				cur := q.hpDesc.ProtectPtr(hpDesc, helper, q.state[i].P.Load())
				if q.state[i].P.Load() != cur {
					continue
				}
				if last == q.tail.Load() && q.isStillPending(i, phase) {
					nd := q.allocDesc(helper, cur.phase.Load(), false, false, nil)
					q.casState(helper, i, cur, nd)
				}
				continue
			}
			// Tail is lagging behind a linked node; finish that enqueue.
			q.helpFinishEnq(helper)
			continue
		}
		// Non-empty: bind the request to this head so a successful claim
		// can be attributed even if we stall (KP's two-phase dequeue).
		cur := q.hpDesc.ProtectPtr(hpDesc, helper, q.state[i].P.Load())
		if q.state[i].P.Load() != cur {
			continue
		}
		if !q.isStillPending(i, phase) {
			return
		}
		if cur.node.Load() != first {
			nd := q.allocDesc(helper, cur.phase.Load(), true, false, first)
			if !q.casState(helper, i, cur, nd) {
				continue
			}
		}
		first.deqTid.CompareAndSwap(idxNone, i)
		q.helpFinishDeq(helper)
	}
}

// helpFinishDeq completes a claimed dequeue: publish the value node in the
// claimant's descriptor, swing the head, and retire the old head with the
// §3.2 conditional: it may be freed only after its own item was taken.
func (q *Queue[T]) helpFinishDeq(helper int) {
	first := q.hpNode.ProtectPtr(hpHead, helper, q.head.Load())
	if first != q.head.Load() {
		return
	}
	next := q.hpNode.ProtectPtr(hpNext, helper, first.next.Load())
	if first != q.head.Load() {
		return
	}
	i := first.deqTid.Load()
	if i == idxNone || next == nil {
		return
	}
	cur := q.hpDesc.ProtectPtr(hpDesc, helper, q.state[i].P.Load())
	if q.state[i].P.Load() == cur && first == q.head.Load() &&
		cur.pending.Load() && !cur.enqueue.Load() {
		// The completed descriptor carries the *value node* (the new
		// head), the §3.2 restructuring that lets the owner reach its
		// item through the state array after the head moves on.
		nd := q.allocDesc(helper, cur.phase.Load(), false, false, next)
		q.casState(helper, i, cur, nd)
	}
	// The head swing must be attempted even when the descriptor check
	// failed (the claim was already completed by another helper): the
	// owner's own call relies on it so that the head is guaranteed past
	// its bound node before Dequeue returns — otherwise the owner's next
	// dequeue could re-bind the same head and double-consume it.
	if q.head.CompareAndSwap(first, next) {
		retired := first
		q.hpNode.RetireCond(helper, retired, func() bool {
			return retired.item.Load() == nil
		})
	}
}

func (q *Queue[T]) checkTid(threadID int) {
	if threadID < 0 || threadID >= q.maxThreads {
		panic(fmt.Sprintf("kpq: thread id %d out of range [0,%d)", threadID, q.maxThreads))
	}
}
