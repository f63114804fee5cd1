// Engine-level tests: a minimal synthetic composition — plain nodes, a
// tiny hazard domain, no pool, no queue package — exercising the
// announce → help-until-done → linearize cycle of each engine
// independent of any queue built on top.
package consensus_test

import (
	"sync"
	"testing"

	"turnqueue/internal/consensus"
	"turnqueue/internal/hazard"
	"turnqueue/internal/qrt"
)

// synthetic is the minimal op type: an Enq engine, optionally paired
// with the Deq engine, over one hazard domain and plain heap nodes. It
// is what every Turn-family queue reduces to once allocation and
// reclamation policy are stripped away.
type synthetic struct {
	rt  *qrt.Runtime
	hp  *hazard.Domain[consensus.Node[int]]
	enq consensus.Enq[int]
	deq consensus.Deq[int]
}

func newSynthetic(maxThreads, numHPs int) *synthetic {
	s := &synthetic{rt: qrt.New(maxThreads)}
	s.hp = hazard.New[consensus.Node[int]](maxThreads, numHPs,
		func(_ int, nd *consensus.Node[int]) { nd.ClearItem() },
		hazard.WithActiveSet(s.rt))
	return s
}

func (s *synthetic) announce(tid, v int) {
	s.rt.EnsureActive(tid)
	nd := new(consensus.Node[int])
	nd.Reset(v, int32(tid))
	s.enq.Announce(tid, nd, false)
}

// walk returns the items reachable from the sentinel, in list order.
func walk(sentinel *consensus.Node[int]) []int {
	var out []int
	for nd := sentinel.Next(); nd != nil; nd = nd.Next() {
		out = append(out, nd.Item())
	}
	return out
}

// TestAnnounceInstallsFIFO: sequential announces from rotating threads
// install in announce order, every request entry is cleared on return
// (Invariant 6), and no overruns are counted.
func TestAnnounceInstallsFIFO(t *testing.T) {
	const threads, ops = 4, 40
	s := newSynthetic(threads, 1)
	sentinel := consensus.NewSentinel[int]()
	s.enq.Init(s.rt, s.hp, 0, sentinel)
	for i := 0; i < ops; i++ {
		s.announce(i%threads, i)
		if got := s.enq.Announced(i % threads); got != nil {
			t.Fatalf("op %d: announce entry not cleared after return", i)
		}
	}
	items := walk(sentinel)
	if len(items) != ops {
		t.Fatalf("installed %d nodes, want %d", len(items), ops)
	}
	for i, v := range items {
		t.Helper()
		if v != i {
			t.Fatalf("position %d holds %d; announce order not preserved", i, v)
		}
	}
	if s.enq.Tail().Item() != ops-1 {
		t.Fatalf("tail is not the last announced node")
	}
	if n := s.enq.Overruns(); n != 0 {
		t.Fatalf("sequential announces counted %d overruns", n)
	}
}

// TestAnnounceBatchChain: a privately linked chain published as one
// request installs atomically, and the tail jumps to the chain end.
func TestAnnounceBatchChain(t *testing.T) {
	s := newSynthetic(2, 1)
	sentinel := consensus.NewSentinel[int]()
	s.enq.Init(s.rt, s.hp, 0, sentinel)
	s.rt.EnsureActive(0)

	nodes := make([]*consensus.Node[int], 5)
	for i := range nodes {
		nodes[i] = new(consensus.Node[int])
		nodes[i].Reset(100+i, 0)
		if i > 0 {
			nodes[i-1].SetNext(nodes[i])
		}
	}
	consensus.LinkChain(nodes[0], nodes[4])
	s.enq.Announce(0, nodes[4], true)

	items := walk(sentinel)
	if len(items) != 5 {
		t.Fatalf("chain installed %d nodes, want 5", len(items))
	}
	for i, v := range items {
		if v != 100+i {
			t.Fatalf("position %d holds %d, want %d", i, v, 100+i)
		}
	}
	if s.enq.Tail() != nodes[4] {
		t.Fatal("tail rested on a chain interior")
	}
}

// TestDequeueLinearizes pairs the two engines with nothing in between:
// items come out in insertion order, the empty queue reports empty, and
// the retired prReq chain keeps the hazard accounting balanced.
func TestDequeueLinearizes(t *testing.T) {
	const threads, ops = 3, 30
	s := newSynthetic(threads, 3)
	sentinel := consensus.NewSentinel[int]()
	s.enq.Init(s.rt, s.hp, 0, sentinel)
	s.deq.Init(s.rt, s.hp, 0, 1, 2, s.enq.TailPtr(), sentinel)

	if _, ok, _ := s.deq.DequeueOne(0); ok {
		t.Fatal("fresh queue not empty")
	}
	s.hp.Clear(0)
	for i := 0; i < ops; i++ {
		s.announce(i%threads, i)
	}
	for i := 0; i < ops; i++ {
		tid := i % threads
		item, ok, prReq := s.deq.DequeueOne(tid)
		s.hp.Clear(tid)
		if !ok {
			t.Fatalf("dequeue %d: unexpectedly empty", i)
		}
		if item != i {
			t.Fatalf("dequeue %d returned %d; FIFO violated", i, item)
		}
		s.hp.Retire(tid, prReq)
	}
	if _, ok, _ := s.deq.DequeueOne(0); ok {
		t.Fatal("drained queue not empty")
	}
	s.hp.Clear(0)
	if n := s.deq.Overruns(); n != 0 {
		t.Fatalf("sequential dequeues counted %d overruns", n)
	}
	retires, deletes, _ := s.hp.Stats()
	if deletes > retires {
		t.Fatalf("hazard deletes %d exceed retires %d", deletes, retires)
	}
}

// TestConcurrentHelping hammers the bare engines from all slots at once:
// every enqueued value is dequeued exactly once, per-producer order is
// preserved (the FIFO kernel of linearizability for a queue), and the
// runs stay within the wait-free helping bound.
func TestConcurrentHelping(t *testing.T) {
	const threads, per = 4, 500
	s := newSynthetic(threads, 3)
	sentinel := consensus.NewSentinel[int]()
	s.enq.Init(s.rt, s.hp, 0, sentinel)
	s.deq.Init(s.rt, s.hp, 0, 1, 2, s.enq.TailPtr(), sentinel)

	var wg sync.WaitGroup
	got := make([][]int, threads)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s.rt.EnsureActive(tid)
			for i := 0; i < per; i++ {
				nd := new(consensus.Node[int])
				nd.Reset(tid*per+i, int32(tid))
				s.enq.Announce(tid, nd, false)
				for {
					item, ok, prReq := s.deq.DequeueOne(tid)
					s.hp.Clear(tid)
					if ok {
						s.hp.Retire(tid, prReq)
						got[tid] = append(got[tid], item)
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[int]int, threads*per)
	lastFrom := make([]int, threads)
	for i := range lastFrom {
		lastFrom[i] = -1
	}
	total := 0
	for _, items := range got {
		total += len(items)
		for _, v := range items {
			seen[v]++
		}
	}
	if total != threads*per {
		t.Fatalf("dequeued %d items, want %d", total, threads*per)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d dequeued %d times", v, n)
		}
	}
	// Per-producer FIFO: within each consumer's stream, values from one
	// producer must ascend (each producer enqueues ascending values).
	for tid, items := range got {
		last := make([]int, threads)
		for i := range last {
			last[i] = -1
		}
		for _, v := range items {
			p := v / per
			if v <= last[p] {
				t.Fatalf("consumer %d saw producer %d's values out of order (%d after %d)",
					tid, p, v, last[p])
			}
			last[p] = v
		}
	}
}
