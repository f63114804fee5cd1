package consensus

import (
	"sync/atomic"

	"turnqueue/internal/reclaim"
)

// IdxNone is the paper's IDX_NONE: the deqTid value of a node not yet
// assigned to any dequeue request.
const IdxNone int32 = -1

// Node is the paper's Algorithm 1, shared by every Turn-family queue in
// this repository. It is the only object those queues allocate: one per
// enqueued item, carrying the item itself, the link to the next node,
// and the two consensus fields.
//
//	enqTid — index of the thread that enqueued the node. Read by every
//	         thread during the enqueue turn scan but written only before
//	         the node is published, so it needs no atomicity (the atomic
//	         publication of the node pointer orders it).
//	deqTid — index of the thread whose dequeue request this node satisfies;
//	         claimed by CAS from IdxNone, after which it never changes for
//	         the node's lifetime (paper Invariant 9).
//	blink  — batch-link, the chain extension beyond the paper: nil on a
//	         single-item request and on chain interiors. A batch enqueue
//	         publishes its pre-linked chain's LAST node as the request;
//	         that node's blink points back to the chain's first node (the
//	         helper installs the whole chain by CASing the first node in
//	         after the tail), and the first node's blink points forward to
//	         the last (the tail-advance jumps over the whole chain in one
//	         CAS, so the tail never rests on a chain interior). Written
//	         only between Reset and publication; atomic because helpers
//	         read it through unprotected scan results, where the
//	         enclosing CAS — not the read — decides validity.
type Node[T any] struct {
	item   T
	enqTid int32
	deqTid atomic.Int32
	next   atomic.Pointer[Node[T]]
	blink  atomic.Pointer[Node[T]]
	// tag carries the birth/retire era interval the eras reclamation
	// backend maintains (reclaim.Tag); unused plain fields under the
	// other backends.
	tag reclaim.Tag
}

// Tag exposes the node's embedded era interval for the eras backend's
// accessor (see reclaim.Tag for the no-concurrent-access argument).
func (n *Node[T]) Tag() *reclaim.Tag { return &n.tag }

// NewSentinel returns a node initialized as the queue's initial
// sentinel: enqTid 0 (any index in range would do, §2) and deqTid 0, so
// the first turn scans start at slot 1.
func NewSentinel[T any]() *Node[T] {
	n := new(Node[T])
	n.deqTid.Store(0)
	return n
}

// Reset prepares a (fresh or recycled) node for publication as a new
// enqueue request. It runs strictly before the node becomes shared
// again, so plain stores suffice except deqTid, which keeps its atomic
// type.
func (n *Node[T]) Reset(item T, tid int32) {
	n.item = item
	n.enqTid = tid
	n.deqTid.Store(IdxNone)
	n.next.Store(nil)
	n.blink.Store(nil)
}

// ClearItem zeroes the item so a recycled or pooled node does not pin
// the previously enqueued value for the garbage collector.
func (n *Node[T]) ClearItem() {
	var zero T
	n.item = zero
}

// CasDeqTid is the paper's node.casDeqTid(IDX_NONE, id): the single-shot
// consensus that assigns the node to one dequeue request.
func (n *Node[T]) CasDeqTid(old, new int32) bool {
	return n.deqTid.CompareAndSwap(old, new)
}

// Item returns the node's item.
func (n *Node[T]) Item() T { return n.item }

// EnqTid returns the enqueuing thread index (diagnostics/tests).
func (n *Node[T]) EnqTid() int32 { return n.enqTid }

// DeqTid returns the current dequeue assignment (diagnostics/tests).
func (n *Node[T]) DeqTid() int32 { return n.deqTid.Load() }

// Next returns the successor node.
func (n *Node[T]) Next() *Node[T] { return n.next.Load() }

// NextPtr exposes the next link as a protectable source for
// reclaim.Reclaimer.Protect (the backend loads through it inside its
// validated window).
func (n *Node[T]) NextPtr() *atomic.Pointer[Node[T]] { return &n.next }

// SetNext links the successor of a node the caller still owns — chain
// building before publication, or the single-producer enqueue whose
// exclusive tail ownership replaces the install CAS.
func (n *Node[T]) SetNext(succ *Node[T]) { n.next.Store(succ) }

// BLink returns the batch back-link (diagnostics/tests).
func (n *Node[T]) BLink() *Node[T] { return n.blink.Load() }

// LinkChain marks a privately linked chain [first..last] as one batch
// request: the last node (the published request) points back at the
// first, and the first points forward at the last.
func LinkChain[T any](first, last *Node[T]) {
	last.blink.Store(first)
	first.blink.Store(last)
}

// ChainFirst maps a published enqueue request to the node a helper links
// in after the tail: the request itself for a single enqueue, the
// chain's first node (the request's back-link target) for a batch. The
// request node is an unprotected scan result, but the read needs no
// protection of its own: the install CAS on the tail's next succeeds
// only if that next stayed nil since the caller validated the tail,
// which rules out any insertion — and hence any completion, retirement
// or recycling of the scanned request — in the window, so a successful
// CAS installs exactly the chain its publisher linked. On a failing CAS
// the value is discarded.
func ChainFirst[T any](req *Node[T]) *Node[T] {
	if first := req.blink.Load(); first != nil {
		return first
	}
	return req
}

// ChainLast maps an installed next-node to the tail-advance target: the
// node itself for a single enqueue, the chain's last node (the first
// node's forward blink) for a batch — one CAS swings the tail over the
// whole chain, preserving the invariant that it never rests on a chain
// interior. lnext was read from the protected tail's next, and the
// advance CAS succeeds only if the tail stayed put, in which case lnext
// is still beyond the head (undequeued, unrecycled) and its blink is the
// value its publisher set.
func ChainLast[T any](lnext *Node[T]) *Node[T] {
	if last := lnext.blink.Load(); last != nil {
		return last
	}
	return lnext
}
