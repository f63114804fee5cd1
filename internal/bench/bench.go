// Package bench implements the paper's measurement procedures — the
// latency protocol of §4.1 (Table 3, Figure 1), the pairs and burst
// throughput microbenchmarks of §4.4 (Figures 2 and 3), and the memory
// accounting of §4.2 (Table 4) — against every queue in this repository.
//
// The drivers operate on thread-indexed queues directly (internal
// packages), with each pinned worker using its worker index as its thread
// slot, exactly like the paper's thread_local indices.
package bench

import (
	"turnqueue/internal/core"
	"turnqueue/internal/faaq"
	"turnqueue/internal/kpq"
	"turnqueue/internal/lockq"
	"turnqueue/internal/msq"
	"turnqueue/internal/qrt"
	"turnqueue/internal/reclaim"
	"turnqueue/internal/sharded"
	"turnqueue/internal/simq"
	"turnqueue/internal/turnplus"
)

// Queue is the surface the drivers need: thread-indexed enqueue/dequeue
// plus the shared per-thread runtime, so workers claim real slots
// (harness.RunRegistered) instead of trusting their worker index.
type Queue interface {
	Enqueue(threadID int, v uint64)
	Dequeue(threadID int) (uint64, bool)
	Runtime() *qrt.Runtime
}

// BatchQueue is the optional batch surface of a benchmarked queue. The
// pairs driver uses it when PairsConfig.Batch > 1 and the implementation
// provides it (the Turn queue's chain batching); other queues fall back
// to a loop of single operations, so batch configurations remain
// comparable across every factory.
type BatchQueue interface {
	EnqueueBatch(threadID int, items []uint64)
	DequeueBatch(threadID int, buf []uint64) int
}

// Factory names a queue implementation and builds instances sized for a
// given thread count.
type Factory struct {
	Name string
	New  func(maxThreads int) Queue
	// Relaxed marks queues with the sharded front's weakened contract:
	// per-shard FIFO instead of one global order, and a Dequeue that may
	// report empty while another shard still holds items. Drivers must
	// retry empty dequeues instead of treating them as invariant
	// violations, and checkers must skip global real-time FIFO.
	Relaxed bool
}

// lockAdapter gives the two-lock queue the thread-indexed signature.
type lockAdapter struct {
	q  *lockq.Queue[uint64]
	rt *qrt.Runtime
}

func (a lockAdapter) Enqueue(_ int, v uint64)      { a.q.Enqueue(v) }
func (a lockAdapter) Dequeue(_ int) (uint64, bool) { return a.q.Dequeue() }
func (a lockAdapter) Runtime() *qrt.Runtime        { return a.rt }

// PaperFactories returns the three queues of the paper's microbenchmarks
// (MS, KP, Turn) in presentation order.
func PaperFactories() []Factory {
	return []Factory{
		{Name: "MS", New: func(n int) Queue { return msq.New[uint64](n) }},
		{Name: "KP", New: func(n int) Queue { return kpq.New[uint64](kpq.WithMaxThreads(n)) }},
		{Name: "Turn", New: func(n int) Queue { return core.New[uint64](core.WithMaxThreads(n)) }},
	}
}

// AllFactories returns every MPMC queue, including the FK-style and
// YMC-style baselines the paper excluded from its plots (experiment X3)
// and the blocking two-lock queue (§1.2 motivation).
func AllFactories() []Factory {
	return append(PaperFactories(),
		Factory{Name: "Sim(FK)", New: func(n int) Queue { return simq.New[uint64](simq.WithMaxThreads(n)) }},
		Factory{Name: "FAA(YMC)", New: func(n int) Queue { return faaq.New[uint64](faaq.WithMaxThreads(n)) }},
		Factory{Name: "TurnPlus", New: func(n int) Queue { return turnplus.New[uint64](turnplus.WithMaxThreads(n)) }},
		Factory{Name: "TwoLock", New: func(n int) Queue { return lockAdapter{lockq.New[uint64](), qrt.New(n)} }},
	)
}

// BackendFactories returns the Turn queue under each non-default
// reclamation backend (experiment X12's speed axis). The default
// AllFactories "Turn" row is the hazard baseline these compare against:
// epoch/qsbr protect is a region entry (no per-access store), eras is
// one reservation store per era change — the uncontended rows measure
// what the §3 bound costs on the hot path.
func BackendFactories() []Factory {
	mk := func(k reclaim.Kind) func(int) Queue {
		return func(n int) Queue {
			return core.New[uint64](core.WithMaxThreads(n), core.WithBackend(k))
		}
	}
	return []Factory{
		{Name: "Turn(epoch)", New: mk(reclaim.KindEpoch)},
		{Name: "Turn(qsbr)", New: mk(reclaim.KindQSBR)},
		{Name: "Turn(eras)", New: mk(reclaim.KindEras)},
	}
}

// FactoryByName resolves a name from AllFactories, the Turn ablation
// variants, the reclamation-backend variants, or the sharded fronts; ok
// is false for unknown names.
func FactoryByName(name string) (Factory, bool) {
	all := append(AllFactories(), TurnVariantFactories()...)
	all = append(all, BackendFactories()...)
	all = append(all, ShardedFactories()...)
	for _, f := range all {
		if f.Name == name {
			return f, true
		}
	}
	return Factory{}, false
}

// ShardedFactories returns the sharded front over TurnPlus at the shard
// counts of experiment X11. Sharded(1) is a strict pass-through (the
// inner queue's full FIFO contract survives the facade); the multi-shard
// fronts are Relaxed — per-shard FIFO, and emptiness is advisory.
func ShardedFactories() []Factory {
	mk := func(shards int) func(int) Queue {
		return func(n int) Queue {
			return sharded.New[uint64](n, shards, func(int) sharded.Inner[uint64] {
				return turnplus.New[uint64](turnplus.WithMaxThreads(n))
			})
		}
	}
	return []Factory{
		{Name: "Sharded(1)", New: mk(1)},
		{Name: "Sharded(4)", New: mk(4), Relaxed: true},
		{Name: "Sharded(16)", New: mk(16), Relaxed: true},
	}
}

// TurnVariantFactories are the ablation variants of the Turn queue
// (experiments X1 and X2).
func TurnVariantFactories() []Factory {
	return []Factory{
		{Name: "Turn(pool,R=0)", New: func(n int) Queue {
			return core.New[uint64](core.WithMaxThreads(n))
		}},
		{Name: "Turn(pool,R=32)", New: func(n int) Queue {
			return core.New[uint64](core.WithMaxThreads(n), core.WithHazardR(32))
		}},
		{Name: "Turn(gc,R=0)", New: func(n int) Queue {
			return core.New[uint64](core.WithMaxThreads(n), core.WithReclaim(core.ReclaimGC))
		}},
		{Name: "Turn(noreclaim)", New: func(n int) Queue {
			return core.New[uint64](core.WithMaxThreads(n), core.WithReclaim(core.ReclaimNone))
		}},
	}
}
