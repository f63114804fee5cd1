package turnplus

import (
	"sync"
	"sync/atomic"
	"testing"

	"turnqueue/internal/account"
	"turnqueue/internal/reclaim"
)

func TestSequentialFIFO(t *testing.T) {
	q := New[int](WithMaxThreads(4))
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("fresh queue not empty")
	}
	const ops = 5000 // several ring transitions at the default size? keep segSize small instead
	for i := 0; i < ops; i++ {
		q.Enqueue(i%4, i)
	}
	for i := 0; i < ops; i++ {
		v, ok := q.Dequeue(i % 4)
		if !ok {
			t.Fatalf("dequeue %d: unexpectedly empty", i)
		}
		if v != i {
			t.Fatalf("dequeue %d returned %d; FIFO violated", i, v)
		}
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("drained queue not empty")
	}
}

// TestRingTransitions forces many ring installs and removals through the
// consensus engines by using a tiny segment size.
func TestRingTransitions(t *testing.T) {
	q := New[int](WithMaxThreads(2), WithSegmentSize(4))
	const ops = 1000
	for i := 0; i < ops; i++ {
		q.Enqueue(0, i)
	}
	for i := 0; i < ops; i++ {
		v, ok := q.Dequeue(1)
		if !ok || v != i {
			t.Fatalf("dequeue %d: got (%d,%v)", i, v, ok)
		}
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("drained queue not empty")
	}
	if enq, deq := q.OverrunStats(); enq != 0 || deq != 0 {
		t.Fatalf("sequential run counted overruns %d/%d", enq, deq)
	}
}

// TestSlowPathForced drives every operation down the slow path with
// patience=1 on a near-empty queue: interleaved enqueue/dequeue pairs
// with a tiny ring so seals, announces, and the march all run.
func TestSlowPathForced(t *testing.T) {
	q := New[int](WithMaxThreads(2), WithSegmentSize(2), WithPatience(1))
	for i := 0; i < 500; i++ {
		q.Enqueue(0, i)
		v, ok := q.Dequeue(1)
		if !ok || v != i {
			t.Fatalf("round %d: got (%d,%v)", i, v, ok)
		}
		if _, ok := q.Dequeue(0); ok {
			t.Fatalf("round %d: queue should be empty", i)
		}
	}
}

func TestEnqueueBatchAtomicOrder(t *testing.T) {
	q := New[int](WithMaxThreads(2), WithSegmentSize(8))
	q.Enqueue(0, -1)
	batch := make([]int, 20) // spans three rings
	for i := range batch {
		batch[i] = i
	}
	q.EnqueueBatch(0, batch)
	q.Enqueue(0, 100)
	want := append(append([]int{-1}, batch...), 100)
	for i, w := range want {
		v, ok := q.Dequeue(1)
		if !ok || v != w {
			t.Fatalf("position %d: got (%d,%v), want %d", i, v, ok, w)
		}
	}
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("drained queue not empty")
	}
}

func TestConcurrentExactlyOnce(t *testing.T) {
	const threads, per = 4, 2000
	q := New[int](WithMaxThreads(threads), WithSegmentSize(64), WithPatience(4))
	var wg sync.WaitGroup
	got := make([][]int, threads)
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Enqueue(tid, tid*per+i)
				for {
					if v, ok := q.Dequeue(tid); ok {
						got[tid] = append(got[tid], v)
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int]int, threads*per)
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
	// Per-producer FIFO within each consumer's stream.
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

// TestBackendChurnMatrix runs a concurrent slot-churn workload under
// every reclamation backend: small rings and low patience keep ring
// retirements flowing while workers repeatedly Acquire, operate, and
// Release slots. This is the traffic that distinguishes the backends'
// lifecycle hooks — hazard rescans on release, epoch/qsbr migrate
// pinned residue and re-enter regions per operation (clearPerOp), eras
// re-stamps birth eras on recycled rings — and exactly-once is the
// property any premature free would break.
func TestBackendChurnMatrix(t *testing.T) {
	for _, kind := range reclaim.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			const workers, maxThreads = 4, 8
			rounds := 300
			if testing.Short() {
				rounds = 60
			}
			q := New[int](WithMaxThreads(maxThreads), WithSegmentSize(4),
				WithPatience(2), WithBackend(kind))
			rt := q.Runtime()
			var wg sync.WaitGroup
			got := make([][]int, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for seq := 0; seq < rounds; seq++ {
						slot, ok := rt.Acquire()
						if !ok {
							seq--
							continue
						}
						q.Enqueue(slot, id*rounds+seq)
						if v, ok := q.Dequeue(slot); ok {
							got[id] = append(got[id], v)
						}
						rt.Release(slot)
					}
				}(w)
			}
			wg.Wait()
			// Drain the residue, then check the multiset: every value
			// exactly once.
			slot, ok := rt.Acquire()
			if !ok {
				t.Fatal("no free slot for final drain")
			}
			var tail []int
			for {
				v, ok := q.Dequeue(slot)
				if !ok {
					break
				}
				tail = append(tail, v)
			}
			rt.Release(slot)
			seen := make(map[int]int)
			total := 0
			for _, items := range append(got, tail) {
				total += len(items)
				for _, v := range items {
					seen[v]++
				}
			}
			if total != workers*rounds {
				t.Fatalf("dequeued %d items, want %d", total, workers*rounds)
			}
			for v, n := range seen {
				if n != 1 {
					t.Fatalf("value %d dequeued %d times", v, n)
				}
			}
			if enq, deq := q.OverrunStats(); enq != 0 || deq != 0 {
				t.Fatalf("OverrunStats = (%d,%d), want (0,0)", enq, deq)
			}
			q.DrainReclaim()
			if b := q.Reclaimer().Backlog(); b != 0 {
				t.Fatalf("backend %s backlog %d after churn + close sweep, want 0", kind, b)
			}
		})
	}
}

// TestConcurrentSlowPathMix forces maximal fast/slow mixing: patience 1,
// two-cell rings, and batch enqueues racing singles, so every mechanism
// (seal, announce, march, donation, ring removal) runs under contention.
func TestConcurrentSlowPathMix(t *testing.T) {
	const threads, per = 4, 600
	q := New[int](WithMaxThreads(threads), WithSegmentSize(2), WithPatience(1))
	var wg sync.WaitGroup
	var taken [threads * per]int32
	var drained [threads]int
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			buf := make([]int, 3)
			for i := 0; i < per; i += 3 {
				for j := range buf {
					buf[j] = tid*per + i + j
				}
				if i%2 == 0 {
					q.EnqueueBatch(tid, buf)
				} else {
					for _, v := range buf {
						q.Enqueue(tid, v)
					}
				}
				for k := 0; k < 3; {
					if v, ok := q.Dequeue(tid); ok {
						taken[v]++
						drained[tid]++
						k++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for v, n := range taken {
		if n != 1 {
			t.Fatalf("value %d dequeued %d times", v, n)
		}
	}
}

// TestQuiescentAccounting drains the queue, releases every slot, and
// checks the account invariants (backlog within bound, zero overruns,
// and the fast-path counters covering the traffic).
func TestQuiescentAccounting(t *testing.T) {
	q := New[int](WithMaxThreads(4), WithSegmentSize(16))
	const ops = 400
	for i := 0; i < ops; i++ {
		q.Enqueue(i%4, i)
	}
	for i := 0; i < ops; i++ {
		if _, ok := q.Dequeue(i % 4); !ok {
			t.Fatalf("dequeue %d: unexpectedly empty", i)
		}
	}
	snap := account.Capture("turnplus", q.Runtime(), q)
	if err := snap.VerifyQuiescent(); err != nil {
		t.Fatalf("quiescent verification failed: %v", err)
	}
	fastEnq, fastDeq, enqFb, deqFb, _, rings := q.Stats()
	if fastEnq+enqFb*0 == 0 || fastDeq == 0 {
		t.Fatalf("fast-path counters empty: fastEnq=%d fastDeq=%d", fastEnq, fastDeq)
	}
	if int(fastEnq)+ringsCover(rings, q.segSize) < ops {
		t.Logf("fastEnq=%d enqFb=%d rings=%d", fastEnq, enqFb, rings)
	}
	if deqFb < 0 {
		t.Fatal("unreachable")
	}
}

func ringsCover(rings int64, segSize int) int { return int(rings) * segSize }

// TestSlowEnqueueInvalidatesProtectionCache is the regression test for a
// hazard-safety bug: Enq.Announce ends with hp.Clear, which nulls EVERY
// hazard slot of the thread, but the slow enqueue paths used to reset
// only the tail entry of the protection cache. The stale head/front
// entries then made a later fastDequeue skip ProtectPtr while actually
// unprotected.
func TestSlowEnqueueInvalidatesProtectionCache(t *testing.T) {
	zero := cacheSlot[int]{}

	q := New[int](WithMaxThreads(2))
	// Populate the dequeue-side cache: an empty-queue dequeue protects
	// the head sentinel and records it.
	if _, ok := q.Dequeue(0); ok {
		t.Fatal("fresh queue not empty")
	}
	if q.caches[0].head == nil {
		t.Fatal("precondition: empty dequeue did not populate the head cache")
	}
	// The first enqueue announces through the consensus slow path.
	q.Enqueue(0, 1)
	if q.caches[0] != zero {
		t.Fatalf("slow Enqueue left a stale protection cache: %+v", q.caches[0])
	}

	q2 := New[int](WithMaxThreads(2))
	if _, ok := q2.Dequeue(0); ok {
		t.Fatal("fresh queue not empty")
	}
	if q2.caches[0].head == nil {
		t.Fatal("precondition: empty dequeue did not populate the head cache")
	}
	q2.EnqueueBatch(0, []int{1, 2, 3})
	if q2.caches[0] != zero {
		t.Fatalf("EnqueueBatch left a stale protection cache: %+v", q2.caches[0])
	}
}

// depositAllowed is the fast path's post-FAA deposit rule for ticket ti
// (Enqueue's sealed re-check), extracted so the seal tests below can
// drive it through exact interleavings.
func depositAllowed[T any](seg *segment[T], ti int64) bool {
	sl := seg.sealed.Load()
	return sl == sealOpen || (sl != sealPending && ti < sl)
}

// TestSealTicketInterleavings drives the fast-path/seal schedules that
// matter for the lost-enqueue bug deterministically, via the two-phase
// seal's observable pending state.
func TestSealTicketInterleavings(t *testing.T) {
	const segSize = 8

	// Ticket drawn and re-checked wholly before the seal begins: the
	// deposit is allowed, so the published capacity must cover it.
	seg := newSegment[int](segSize)
	ti := seg.enqIdx.Add(1) - 1
	if !depositAllowed(seg, ti) {
		t.Fatal("ticket on an open ring must be allowed to deposit")
	}
	if !seg.sealBegin() {
		t.Fatal("sealBegin lost on a fresh ring")
	}
	if got := seg.sealPublish(); ti >= got {
		t.Fatalf("capacity %d strands pre-seal ticket %d", got, ti)
	}

	// The bug's schedule: the sealer has fixed its course but not yet
	// published when a ticket re-checks. The one-shot seal this test
	// guards against (capacity loaded before the CAS) had no observable
	// intermediate state here — the re-check read open and the deposit
	// landed at/above the upcoming capacity, where no dequeue path ever
	// reads, so the item vanished with the drained ring. The two-phase
	// seal makes the re-check abandon the ticket instead.
	seg2 := newSegment[int](segSize)
	if !seg2.sealBegin() {
		t.Fatal("sealBegin lost on a fresh ring")
	}
	t2 := seg2.enqIdx.Add(1) - 1
	if depositAllowed(seg2, t2) {
		t.Fatal("ticket drawn mid-seal must be abandoned")
	}
	if seg2.capLimit() != -1 {
		t.Fatal("capLimit must stay undetermined while the seal is pending")
	}
	// The capacity is loaded after the pending transition, so even the
	// abandoned ticket is counted: capacity only ever over-covers, and
	// the unfilled cell below it is handled by the poison protocol.
	if got := seg2.sealPublish(); got != 1 {
		t.Fatalf("capacity = %d, want 1 (enqIdx at publish time)", got)
	}
	if cl := seg2.capLimit(); cl != 1 {
		t.Fatalf("capLimit = %d after publish, want 1", cl)
	}
	if t3 := seg2.enqIdx.Add(1) - 1; depositAllowed(seg2, t3) {
		t.Fatal("post-seal ticket at/above capacity must be abandoned")
	}

	// Liveness: a winner parked between the phases blocks nobody — any
	// seal() caller helps publish, and must not claim the win.
	seg3 := newSegment[int](segSize)
	if !seg3.sealBegin() {
		t.Fatal("sealBegin lost on a fresh ring")
	}
	capacity, won := seg3.seal()
	if won {
		t.Fatal("helper claimed a seal it did not begin")
	}
	if capacity != 0 {
		t.Fatalf("helper published capacity %d, want 0", capacity)
	}
}

// TestSealCapacityCoversOpenTickets stresses the two-phase seal against
// the fast-path deposit rule: a ticket whose post-FAA sealed check reads
// open (or a capacity above it) may deposit, and the published capacity
// must cover every such ticket — otherwise the deposit would sit at or
// above capLimit, where no dequeue path ever reads, and the item would
// vanish when the drained ring is removed. The single-CAS seal this
// replaced loaded enqIdx before its CAS and failed this test's invariant
// in the load→CAS window.
func TestSealCapacityCoversOpenTickets(t *testing.T) {
	const (
		rounds  = 2000
		workers = 4
		perW    = 8
		segSize = 2 * workers * perW // never naturally full: isolates the seal
	)
	for r := 0; r < rounds; r++ {
		seg := newSegment[int](segSize) // cells unused; counters and seal only
		var maxDeposited atomic.Int64
		maxDeposited.Store(-1)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer done.Done()
				start.Wait()
				for i := 0; i < perW; i++ {
					ti := seg.enqIdx.Add(1) - 1
					if !depositAllowed(seg, ti) {
						continue
					}
					for {
						cur := maxDeposited.Load()
						if ti <= cur || maxDeposited.CompareAndSwap(cur, ti) {
							break
						}
					}
				}
			}()
		}
		start.Done()
		capacity, _ := seg.seal()
		done.Wait()
		// seal may have raced the workers; the published value is final.
		final, _ := seg.seal()
		if capacity > final {
			t.Fatalf("round %d: seal reported capacity %d above final %d", r, capacity, final)
		}
		if m := maxDeposited.Load(); m >= final {
			t.Fatalf("round %d: ticket %d deposited at/above sealed capacity %d (lost enqueue)",
				r, m, final)
		}
	}
}
