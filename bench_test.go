// Benchmarks regenerating the paper's tables and figures via `go test
// -bench`. Each benchmark corresponds to one artifact of the evaluation
// (see DESIGN.md §3); the cmd/ binaries run the same drivers at
// configurable scale with full reporting.
//
//	Table 3  -> BenchmarkTable3Latency      (p50/p99/p99.9 reported as metrics)
//	Figure 1 -> BenchmarkFigure1LatencySweep
//	Table 4  -> BenchmarkTable4AllocsPerItem
//	Figure 2 -> BenchmarkFigure2Pairs
//	Figure 3 -> BenchmarkFigure3Burst
//	X1       -> BenchmarkAblationHazardR
//	X2       -> BenchmarkAblationReclaimMode
//	X3       -> BenchmarkExtensionAllQueuesPairs
//	X4       -> BenchmarkReclaimStall
package turnqueue

import (
	"fmt"
	"sync/atomic"
	"testing"

	"turnqueue/internal/account"
	"turnqueue/internal/bench"
	"turnqueue/internal/core"
	"turnqueue/internal/epoch"
	"turnqueue/internal/eras"
	"turnqueue/internal/hazard"
	"turnqueue/internal/qsbr"
	"turnqueue/internal/quantile"
	"turnqueue/internal/reclaim"
)

// benchThreads is the worker count used by the fixed-thread benchmarks;
// small because CI machines are small, and the cmd binaries sweep.
const benchThreads = 4

func reportQuantiles(b *testing.B, rows [][]int64, prefix string) {
	med := quantile.MedianOverRuns(rows)
	for i, q := range quantile.PaperQuantiles {
		switch q {
		case 0.50, 0.99, 0.999:
			b.ReportMetric(float64(med[i]), fmt.Sprintf("%s-p%s-ns", prefix, quantile.Label(q)[:len(quantile.Label(q))-1]))
		}
	}
}

// BenchmarkTable3Latency reproduces Table 3: per-operation latency
// quantiles under the burst protocol for MS, KP and Turn.
func BenchmarkTable3Latency(b *testing.B) {
	for _, f := range bench.PaperFactories() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			cfg := bench.LatencyConfig{Threads: benchThreads, Bursts: 4, Warmup: 1, ItemsPerBurst: 4000, Runs: 1}
			var res bench.LatencyResult
			ops := 0
			for i := 0; i < b.N; i++ {
				res = bench.MeasureLatency(f, cfg)
				ops += cfg.Bursts * cfg.ItemsPerBurst * 2
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
			reportQuantiles(b, res.EnqRows, "enq")
			reportQuantiles(b, res.DeqRows, "deq")
		})
	}
}

// BenchmarkFigure1LatencySweep reproduces Figure 1's thread sweep at a
// reduced set of points.
func BenchmarkFigure1LatencySweep(b *testing.B) {
	for _, f := range bench.PaperFactories() {
		for _, threads := range []int{1, 2, 4, 8} {
			f, threads := f, threads
			b.Run(fmt.Sprintf("%s/threads=%d", f.Name, threads), func(b *testing.B) {
				cfg := bench.LatencyConfig{Threads: threads, Bursts: 2, Warmup: 1, ItemsPerBurst: 2000, Runs: 1}
				var res bench.LatencyResult
				for i := 0; i < b.N; i++ {
					res = bench.MeasureLatency(f, cfg)
				}
				reportQuantiles(b, res.DeqRows, "deq")
			})
		}
	}
}

// BenchmarkTable4AllocsPerItem reproduces Table 4's allocation column:
// heap allocations per enqueue+dequeue pair (pooling disabled where the
// algorithm would hide the churn).
func BenchmarkTable4AllocsPerItem(b *testing.B) {
	factories := []bench.Factory{
		{Name: "Turn", New: func(n int) bench.Queue {
			return core.New[uint64](core.WithMaxThreads(n), core.WithReclaim(core.ReclaimGC))
		}},
	}
	factories = append(factories, bench.AllFactories()...)
	for _, f := range factories {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			q := f.New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(0, uint64(i))
				if _, ok := q.Dequeue(0); !ok {
					b.Fatal("dequeue empty")
				}
			}
		})
	}
}

// BenchmarkFigure2Pairs reproduces Figure 2's workload: every worker runs
// enqueue-then-dequeue pairs concurrently.
func BenchmarkFigure2Pairs(b *testing.B) {
	for _, f := range bench.PaperFactories() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			benchPairs(b, f, benchThreads)
		})
	}
}

// BenchmarkExtensionAllQueuesPairs is experiment X3: the same pairs
// workload over the FK-style, YMC-style and two-lock baselines the paper
// excluded.
func BenchmarkExtensionAllQueuesPairs(b *testing.B) {
	for _, f := range bench.AllFactories()[3:] {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			benchPairs(b, f, benchThreads)
		})
	}
}

func benchPairs(b *testing.B, f bench.Factory, threads int) {
	res := bench.MeasurePairs(f, bench.PairsConfig{Threads: threads, TotalPairs: maxPairs(b.N), Runs: 1})
	b.ReportMetric(res.Median(), "ops/s")
	// One b.N unit == one pair; reflect that in the op count accounting.
	_ = res
}

func maxPairs(n int) int {
	if n < 1000 {
		return 1000
	}
	return n
}

// BenchmarkFigure3Burst reproduces Figure 3: enqueue-only and
// dequeue-only burst rates, reported as separate metrics.
func BenchmarkFigure3Burst(b *testing.B) {
	for _, f := range bench.PaperFactories() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			var res bench.BurstResult
			for i := 0; i < b.N; i++ {
				res = bench.MeasureBurst(f, bench.BurstConfig{
					Threads: benchThreads, ItemsPerBurst: 8000, Iterations: 3, Warmup: 1,
				})
			}
			enq, deq := res.Medians()
			b.ReportMetric(enq, "enq-ops/s")
			b.ReportMetric(deq, "deq-ops/s")
		})
	}
}

// BenchmarkAblationHazardR is experiment X1: the Turn queue's pairs
// throughput as the hazard-pointer R scan threshold grows (R=0 is the
// paper's latency-minimizing choice; larger R batches scans).
func BenchmarkAblationHazardR(b *testing.B) {
	for _, r := range []int{0, 8, 32, 128} {
		r := r
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			q := core.New[uint64](core.WithMaxThreads(2), core.WithHazardR(r))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(0, uint64(i))
				if _, ok := q.Dequeue(0); !ok {
					b.Fatal("dequeue empty")
				}
			}
		})
	}
}

// BenchmarkAblationReclaimMode is experiment X2: pool recycling vs
// GC-dropped nodes vs no reclamation at all.
func BenchmarkAblationReclaimMode(b *testing.B) {
	modes := map[string]core.ReclaimMode{
		"pool": core.ReclaimPool,
		"gc":   core.ReclaimGC,
		"none": core.ReclaimNone,
	}
	for name, mode := range modes {
		name, mode := name, mode
		b.Run(name, func(b *testing.B) {
			q := core.New[uint64](core.WithMaxThreads(2), core.WithReclaim(mode))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(0, uint64(i))
				if _, ok := q.Dequeue(0); !ok {
					b.Fatal("dequeue empty")
				}
			}
		})
	}
}

// BenchmarkReclaimStall is experiment X4 as a benchmark: the per-pair cost
// of churning while one thread is stalled, with the backlog growth
// reported as a metric.
func BenchmarkReclaimStall(b *testing.B) {
	samples := bench.MeasureReclaimStall(1000, 2, 64)
	last := samples[len(samples)-1]
	b.ReportMetric(float64(last.HPBacklog), "hp-backlog")
	b.ReportMetric(float64(last.EpochBacklog), "epoch-backlog-segments")
}

// BenchmarkUncontended measures the single-threaded per-operation cost of
// every queue (the paper's 1-thread points), plus the Turn queue under
// each non-default reclamation backend — the speed axis of experiment
// X12, where the Turn row itself is the hazard baseline.
func BenchmarkUncontended(b *testing.B) {
	for _, f := range append(bench.AllFactories(), bench.BackendFactories()...) {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			q := f.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Enqueue(0, uint64(i))
				if _, ok := q.Dequeue(0); !ok {
					b.Fatal("dequeue empty")
				}
			}
			b.StopTimer()
			// The raw slot is never released (no drain), but the backlog
			// must still respect the paper's bound and pools must balance.
			verifyQuiescentBench(b, account.Capture(f.Name, q.Runtime(), q))
		})
	}
}

// pnode is the protect-benchmark node: a payload plus the embedded era
// tag the eras backend requires (ignored by the other backends).
type pnode struct {
	v   uint64
	tag reclaim.Tag
}

func (n *pnode) Tag() *reclaim.Tag { return &n.tag }

// BenchmarkReclaimProtect isolates the per-access read-protection cost of
// each backend — the mechanism behind the X12 speed axis, measured
// without the rest of the queue around it. The loop is b.N Protect calls
// against one stable pointer with the reservation held across the loop
// (Clear runs once, untimed), which is the steady state every reader
// path sees: hazard pays its sequentially consistent slot store on every
// call, while epoch and QSBR pay one own-line load once in a region and
// eras pays era-stability loads, storing only when the era moved. All
// four go through the Reclaimer interface, so dispatch overhead cancels
// in the comparison. Unlike the full-queue rows this ordering is
// structural, not a property of the measurement window.
func BenchmarkReclaimProtect(b *testing.B) {
	del := func(int, *pnode) {}
	backends := []struct {
		name string
		rc   reclaim.Reclaimer[pnode]
	}{
		{"hazard", hazard.New[pnode](2, 1, del)},
		{"epoch", epoch.New[pnode](2, del)},
		{"qsbr", qsbr.New[pnode](2, del)},
		{"eras", eras.New[pnode](2, 1, del, (*pnode).Tag)},
	}
	for _, be := range backends {
		be := be
		b.Run(be.name, func(b *testing.B) {
			n := &pnode{v: 1}
			be.rc.NoteAlloc(0, n)
			var src atomic.Pointer[pnode]
			src.Store(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got, ok := be.rc.Protect(0, 0, &src); !ok || got != n {
					b.Fatal("protect failed on a stable pointer")
				}
			}
			b.StopTimer()
			be.rc.Clear(0)
		})
	}
}

// BenchmarkEnqueueBatch measures the per-item cost of chain-batched
// enqueues on the Turn queue (experiment X10's enqueue side): one
// consensus round publishes the whole chain, so ns/op should fall well
// below BenchmarkUncontended's Turn line as k grows. The drain between
// chunks is untimed.
func BenchmarkEnqueueBatch(b *testing.B) {
	for _, k := range []int{8, 32} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			q := core.New[uint64](core.WithMaxThreads(1))
			items := make([]uint64, k)
			buf := make([]uint64, 256)
			b.ResetTimer()
			for done := 0; done < b.N; {
				chunk := 4096
				if b.N-done < chunk {
					chunk = b.N - done
				}
				n := 0
				for ; n+k <= chunk; n += k {
					q.EnqueueBatch(0, items)
				}
				for ; n < chunk; n++ {
					q.Enqueue(0, uint64(n))
				}
				b.StopTimer()
				for got := 0; got < chunk; {
					m := q.DequeueBatch(0, buf)
					if m == 0 {
						b.Fatal("dequeue empty mid-drain")
					}
					got += m
				}
				b.StartTimer()
				done += chunk
			}
		})
	}
}

// BenchmarkDequeueBatch measures the per-item cost of batched dequeues on
// the Turn queue (experiment X10's dequeue side): the consensus still runs
// per node, but slot checks and the hazard retire scan are amortized over
// the batch. The refill between chunks is untimed.
func BenchmarkDequeueBatch(b *testing.B) {
	for _, k := range []int{8, 32} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			q := core.New[uint64](core.WithMaxThreads(1))
			items := make([]uint64, 256)
			buf := make([]uint64, k)
			b.ResetTimer()
			for done := 0; done < b.N; {
				chunk := 4096
				if b.N-done < chunk {
					chunk = b.N - done
				}
				b.StopTimer()
				for n := 0; n < chunk; n += len(items) {
					fill := len(items)
					if chunk-n < fill {
						fill = chunk - n
					}
					q.EnqueueBatch(0, items[:fill])
				}
				b.StartTimer()
				for got := 0; got < chunk; {
					m := q.DequeueBatch(0, buf)
					if m == 0 {
						b.Fatal("dequeue empty mid-drain")
					}
					got += m
				}
				done += chunk
			}
		})
	}
}

// BenchmarkBatchPairs is experiment X10's headline comparison: the
// 4-thread pairs workload at batch sizes 1 (the single-op baseline), 8,
// and 32, all on the Turn queue's native chain batching. Ops/sec is
// per-item in every configuration.
func BenchmarkBatchPairs(b *testing.B) {
	turn := bench.PaperFactories()[2]
	for _, k := range []int{1, 8, 32} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			res := bench.MeasurePairs(turn, bench.PairsConfig{
				Threads: benchThreads, TotalPairs: maxPairs(b.N), Runs: 1, Batch: k,
			})
			b.ReportMetric(res.Median(), "ops/s")
		})
	}
}

// BenchmarkAblationRandomWork is experiment X6: the pairs workload with
// the 50-100ns inter-operation "random work" of the MS/YMC methodology,
// which §4.1 deliberately omits because it artificially reduces
// contention. Compare against BenchmarkFigure2Pairs.
func BenchmarkAblationRandomWork(b *testing.B) {
	for _, f := range bench.PaperFactories() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			res := bench.MeasurePairs(f, bench.PairsConfig{
				Threads: benchThreads, TotalPairs: maxPairs(b.N), Runs: 1, RandomWork: true,
			})
			b.ReportMetric(res.Median(), "ops/s")
		})
	}
}
