// BenchmarkServiceRoundTrip measures the queue-as-a-service layer
// end to end: one produce→consume→ack cycle per iteration through the
// real HTTP surface (internal/service over an httptest listener), with
// the full admission pipeline — quota, breaker, per-connection in-flight
// cap — in the path. It is the service-level counterpart of
// BenchmarkAdapterOverhead: where that isolates the cost of the public
// adapter over a raw queue, this prices what the network front adds on
// top, so a regression in the handler or admission path shows up as a
// wall-clock delta rather than hiding behind queue noise.
//
// This benchmark once crashed any benchmark registered after it: a
// hardware watchpoint traced the crash to a one-word heap overflow in
// turnplus.New, where this image's go1.24.0 toolchain linked the
// hazard.WithActiveSet call site against the eras closure body (dupok
// generic-instantiation closures deduplicated by name across packages
// that numbered them differently). The overflow clobbered the testing
// matcher's func value, so the next b.Run jumped to a heap address.
// Fixed at the source — the reclaim packages' option constructors are
// go:noinline (see internal/hazard) — so the benchmark now runs in the
// core set's process like every other. Quotas are off so the benchmark
// prices the handler + queue path, not the token bucket refusing to
// run faster than its configured rate.
package turnqueue_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"turnqueue/internal/service"
)

func BenchmarkServiceRoundTrip(b *testing.B) {
	s, err := service.New(service.Config{
		Topics:     []string{"bench"},
		MaxThreads: 32,
		QuotaRate:  -1,
	})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ConnContext = s.ConnContext
	ts.Start()
	defer ts.Close()
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := &service.Client{Base: ts.URL, Tenant: "bench", MaxAttempts: 1}
		payload := []byte("x")
		for pb.Next() {
			id, err := c.Produce(ctx, "bench", payload)
			if err != nil {
				b.Errorf("produce: %v", err)
				return
			}
			d, err := c.Consume(ctx, "bench")
			if err != nil {
				b.Errorf("consume: %v", err)
				return
			}
			if d == nil {
				// Another parallel body consumed our message; the cycle
				// still acked one message overall, skip.
				continue
			}
			if err := c.Ack(ctx, "bench", d.ID, d.Token); err != nil && err != service.ErrConflict {
				b.Errorf("ack id %d: %v", id, err)
				return
			}
		}
	})
	b.StopTimer()
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if _, err := s.Drain(dctx); err != nil {
		b.Fatalf("drain: %v", err)
	}
}

// BenchmarkServiceRoundTripBatch prices the batched hot path on one
// connection: each iteration moves k messages through one
// produce-batch, one consume-batch, and one ack-batch — three HTTP
// round trips and three admissions total, against single-op's 3k. The
// reported ns/op and allocs/op are per batch; ns/msg is reported
// explicitly, and scripts/bench.sh smoke divides allocs/op by k to
// gate the amortized per-message allocation count (<= 20) and the
// per-message latency (<= 0.2x the single-op round trip).
func BenchmarkServiceRoundTripBatch(b *testing.B) {
	for _, k := range []int{8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			s, err := service.New(service.Config{
				Topics:     []string{"bench"},
				MaxThreads: 32,
				QuotaRate:  -1,
			})
			if err != nil {
				b.Fatalf("New: %v", err)
			}
			ts := httptest.NewUnstartedServer(s.Handler())
			ts.Config.ConnContext = s.ConnContext
			ts.Start()
			defer ts.Close()
			ctx := context.Background()
			c := &service.Client{Base: ts.URL, Tenant: "bench", MaxAttempts: 1}
			payloads := make([][]byte, k)
			for i := range payloads {
				payloads[i] = []byte("x")
			}
			acks := make([]service.AckEntry, 0, k)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids, err := c.ProduceBatch(ctx, "bench", payloads)
				if err != nil || len(ids) != k {
					b.Fatalf("produce-batch: %d ids, err %v", len(ids), err)
				}
				// The sharded front may spread the batch, so drain until all
				// k are back; steady state is one consume round trip.
				for got := 0; got < k; {
					ds, err := c.ConsumeBatch(ctx, "bench", k-got, 0)
					if err != nil || len(ds) == 0 {
						b.Fatalf("consume-batch: %d deliveries, err %v", len(ds), err)
					}
					got += len(ds)
					acks = acks[:0]
					for _, d := range ds {
						acks = append(acks, service.AckEntry{ID: d.ID, Token: d.Token})
					}
					res, err := c.AckBatch(ctx, "bench", acks)
					if err != nil {
						b.Fatalf("ack-batch: %v", err)
					}
					for j, r := range res {
						if r != service.AckOK {
							b.Fatalf("ack %d: %v", j, r)
						}
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/msg")
			dctx, cancel := context.WithCancel(ctx)
			defer cancel()
			if _, err := s.Drain(dctx); err != nil {
				b.Fatalf("drain: %v", err)
			}
		})
	}
}

// BenchmarkTopicBatch prices the topic layer alone — delivery records,
// leases, and the sharded TurnPlus batch operations — with no HTTP in
// front: two goroutines each loop ProduceBatch(32 × 64 B) →
// ConsumeBatch until 32 are back → AckBatch. One op is one such cycle
// (32 messages); ns/msg and allocs/msg are reported explicitly, and
// scripts/bench.sh smoke gates allocs/msg.
func BenchmarkTopicBatch(b *testing.B) {
	const (
		k       = 32
		workers = 2
	)
	s, err := service.New(service.Config{Topics: []string{"bench"}, QuotaRate: -1})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	topic := s.Topic("bench")
	payload := make([]byte, 64)
	payloads := make([][]byte, k)
	for i := range payloads {
		payloads[i] = payload
	}

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]uint64, 0, k)
			qids := make([]uint64, k)
			acks := make([]service.AckEntry, 0, k)
			results := make([]service.AckResult, 0, k)
			var recv []byte
			emit := func(id, token uint64, p []byte) {
				recv = append(recv[:0], p...)
				acks = append(acks, service.AckEntry{ID: id, Token: token})
			}
			for i := 0; i < n; i++ {
				ids = topic.ProduceBatch("bench", payloads, ids[:0])
				acks = acks[:0]
				for len(acks) < k {
					topic.ConsumeBatch(time.Now(), qids[:k-len(acks)], 0, emit)
				}
				results = topic.AckBatch(acks, results[:0])
				for _, r := range results {
					if r != service.AckOK {
						b.Errorf("ack: %v", r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/msg")
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := s.Drain(dctx)
	if err != nil {
		b.Fatalf("drain: %v", err)
	}
	if rep.Undelivered["bench"] != 0 || rep.Unacked["bench"] != 0 {
		b.Fatalf("drain left %d undelivered, %d unacked", rep.Undelivered["bench"], rep.Unacked["bench"])
	}
}
