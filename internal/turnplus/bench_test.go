package turnplus

import "testing"

// BenchmarkEnqueueAfterBatch prices the batch-sized ring trade-off. Each
// op enqueues one 32-item batch, optionally follows it with one single
// Enqueue, and drains the queue, all on one thread. A batch ring holds
// exactly its chunk, so the single Enqueue finds the tail ring full and
// announces a ring of its own; the difference between the two rows is
// that slow path. fallbacks/single reports how often the single Enqueue
// left the fast path.
func BenchmarkEnqueueAfterBatch(b *testing.B) {
	const k = 32
	for _, single := range []bool{false, true} {
		name := "batch"
		if single {
			name = "batch+single"
		}
		b.Run(name, func(b *testing.B) {
			q := New[int](WithMaxThreads(1))
			items := make([]int, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.EnqueueBatch(0, items)
				n := k
				if single {
					q.Enqueue(0, i)
					n++
				}
				for ; n > 0; n-- {
					if _, ok := q.Dequeue(0); !ok {
						b.Fatal("dequeue empty mid-drain")
					}
				}
			}
			b.StopTimer()
			if single {
				_, _, enqFb, _, _, _ := q.Stats()
				b.ReportMetric(float64(enqFb-int64(b.N))/float64(b.N), "fallbacks/single")
			}
		})
	}
}
