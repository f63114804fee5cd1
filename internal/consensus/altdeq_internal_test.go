package consensus

import (
	"testing"

	"turnqueue/internal/hazard"
	"turnqueue/internal/qrt"
)

// newAltDeqForTest builds a minimal AltDeq over a fresh runtime and
// hazard domain, mirroring turnalt's wiring (hpHead/hpNext/hpDeq/hpScan
// = 0..3, enqueue engine supplying the tail word).
func newAltDeqForTest(maxThreads int) (*AltDeq[int], *Enq[int], *Node[int]) {
	rt := qrt.New(maxThreads)
	hp := hazard.New[Node[int]](maxThreads, 4, func(int, *Node[int]) {}, hazard.WithActiveSet(rt))
	sentinel := NewSentinel[int]()
	enq := new(Enq[int])
	enq.Init(rt, hp, 0, sentinel)
	d := new(AltDeq[int])
	d.Init(rt, hp, 0, 1, 2, 3, enq.TailPtr(), sentinel)
	return d, enq, sentinel
}

// TestAltDeqCasDeqAndHeadToleratesReusedMarker reconstructs the state a
// stale helper can observe in the single-array variant: node N was
// assigned and published, the head advanced past lhead, and N's owner
// has since reused N as its parked request marker — storing IdxOpen on
// reopen, or IdxNone after an empty-queue rollback. A helper that
// validated lhead/lnext before the head advanced then re-reads
// lnext.deqTid inside casDeqAndHead and sees the sentinel; it must not
// index the dequeuers array with it (this panicked with index -2/-1
// before the guard). The head CAS must fail harmlessly against the
// already-advanced head.
func TestAltDeqCasDeqAndHeadToleratesReusedMarker(t *testing.T) {
	for _, mark := range []int32{IdxOpen, IdxNone} {
		d, _, sentinel := newAltDeqForTest(2)
		parked0 := d.dequeuers[0].P.Load()
		parked1 := d.dequeuers[1].P.Load()

		// N: assigned (deqTid claimed by thread 0), linked after the
		// sentinel, head already advanced to it, then reused as thread
		// 0's request marker carrying the sentinel value under test.
		n := new(Node[int])
		n.item = 42
		n.deqTid.Store(mark)
		sentinel.next.Store(n)
		d.head.Store(n)

		// The stale helper (thread 1) still holds lhead=sentinel,
		// lnext=N from before the advance.
		d.casDeqAndHead(sentinel, n, 1)

		if got := d.head.Load(); got != n {
			t.Fatalf("mark=%d: head moved by a stale helper: got %p, want %p", mark, got, n)
		}
		if d.dequeuers[0].P.Load() != parked0 || d.dequeuers[1].P.Load() != parked1 {
			t.Fatalf("mark=%d: a reused marker was republished into dequeuers", mark)
		}
	}
}

// TestAltDeqRollbackKeepsParkedNodeClaimed: an empty-queue rollback must
// leave the parked node — a node that was in the list and was consumed —
// with a claimed index, never IdxNone. A helper still holding that node
// as a stale lnext would otherwise claim it for its own open request and
// casDeqAndHead would publish it unconditionally: the consumed item is
// delivered a second time and the helper's real item is stranded.
func TestAltDeqRollbackKeepsParkedNodeClaimed(t *testing.T) {
	d, enq, sentinel := newAltDeqForTest(2)
	d.rt.EnsureActive(0)
	d.rt.EnsureActive(1)
	n := new(Node[int])
	n.Reset(7, 0)
	enq.Announce(0, n, false)
	if v, ok, _ := d.DequeueOne(0); !ok || v != 7 {
		t.Fatalf("first dequeue: got (%d,%v), want (7,true)", v, ok)
	}
	if d.dequeuers[0].P.Load() != n {
		t.Fatal("the consumed node is not parked in its owner's entry")
	}
	if _, ok, _ := d.DequeueOne(0); ok {
		t.Fatal("dequeue from an empty queue succeeded")
	}
	if got := n.deqTid.Load(); got == IdxNone || got == IdxOpen {
		t.Fatalf("rolled-back parked node has deqTid %d, want a claimed index", got)
	}

	// Thread 1 opens a request and, as a stale helper, still holds
	// lhead=sentinel, lnext=n from before the head advanced.
	req1 := d.dequeuers[1].P.Load()
	req1.deqTid.Store(IdxOpen)
	if d.searchNext(1, sentinel, n) != 0 {
		t.Fatalf("stale helper re-claimed the consumed node: deqTid %d", n.deqTid.Load())
	}
	d.casDeqAndHead(sentinel, n, 1)
	if d.dequeuers[1].P.Load() != req1 {
		t.Fatal("the consumed node was published to a second request")
	}
}
