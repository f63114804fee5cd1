package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"turnqueue"
	"turnqueue/internal/service"
)

const (
	workers   = 2  // closed-loop clients: one per CPU of the reference host
	batchK    = 32 // messages per produce batch (the service's fast path)
	topicName = "bench"
	tenant    = "bench"
	// The quota stays on, so AdmitN runs on every request, at a rate far
	// above what two loopback clients reach: quota-bound traffic would
	// measure the configured rate, not the program. The burst is 17 s of
	// tokens because the bucket is keyed to the wall clock: a handler
	// that reads the clock and is then descheduled for longer than the
	// burst is refused. With a 16 ms burst (1<<24), one svc-single run
	// in forty on a 2-CPU host saw a refused request.
	quotaRate  = 1e9
	quotaBurst = 1 << 34
	// stuckAfter is how long past the end of a phase a worker may wait
	// for its messages before the run fails as stuck.
	stuckAfter = 30 * time.Second
)

var errStuck = errors.New("messages did not come back before the phase deadline")

// workload is one named traffic mix.
type workload struct {
	name  string
	setup func(seed uint64, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"turn-pairs", setupTurnPairs},
	{"topic-batch", setupTopicBatch},
	{"svc-batch", func(seed uint64, tr *tracer) (instance, error) { return setupSvc(seed, tr, true) }},
	{"svc-single", func(seed uint64, tr *tracer) (instance, error) { return setupSvc(seed, tr, false) }},
}

// instance is one set-up system under test.
type instance interface {
	// run drives the workers until ctl.stop is set and each has finished
	// its cycle, so no message is outstanding between phases. recs is
	// nil for an untraced phase, else one recorder per worker.
	run(ctl *phaseCtl, recs []*recorder) []*workerResult
	// counters reads the layers' cumulative counters.
	counters() map[string]float64
	// close shuts the system down and runs the final correctness gates.
	close() (counts, error)
}

type phaseCtl struct {
	stop     atomic.Bool
	start    time.Time
	width    time.Duration // of one time slice
	deadline time.Time
}

// numSlices is how many equal time slices a phase is cut into; the
// end-to-end metrics are medians over the slices, so that a short
// disturbance from outside the program moves one slice, not the run.
const numSlices = 40

// Call kinds. Each kind's latency has its own mode (on topic-batch a
// produce takes about twice a consume, an ack about half), so op_p50_us
// is taken per kind: a median pooled over kinds falls in the gap
// between two modes and jumps between them from run to run.
const (
	kindPut  = iota // Enqueue, ProduceBatch, Produce
	kindTake        // Dequeue, ConsumeBatch, Consume
	kindAck         // AckBatch, Ack
	numKinds
)

// timeSlice is what completed during one slice of a phase.
type timeSlice struct {
	items   int64
	op      [numKinds]hist
	deliver hist
}

// workerResult is one worker's tally for one phase.
type workerResult struct {
	c     counts
	start time.Time
	width time.Duration
	// slices[numSlices] holds what completed after the phase's end,
	// while the worker finished its cycle.
	slices  [numSlices + 1]timeSlice
	untimed int64 // deliveries whose produce stamp was overwritten
	empties int64 // consume calls that returned nothing
	err     error
}

func runWorkers(ctl *phaseCtl, body func(w int, res *workerResult)) []*workerResult {
	res := make([]*workerResult, workers)
	var wg sync.WaitGroup
	for w := range res {
		res[w] = &workerResult{start: ctl.start, width: ctl.width}
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(w, res[w])
		}()
	}
	wg.Wait()
	return res
}

func (r *workerResult) slice(t time.Time) *timeSlice {
	return &r.slices[min(max(int(t.Sub(r.start)/r.width), 0), numSlices)]
}

func (r *workerResult) timed(kind int, start, end time.Time) {
	r.slice(end).op[kind].add(end.Sub(start).Nanoseconds())
	r.c.attempted++
}

func (r *workerResult) item(now time.Time) {
	r.slice(now).items++
	r.c.items++
}

// delivered checks one consumed message against the ledger and the
// seed, and times it from its produce call's start.
func (r *workerResult) delivered(l *ledger, key uint64, payloadOK bool, now time.Time) {
	if !payloadOK {
		r.c.mismatched++
	}
	if !l.deliver(key) {
		r.c.duplicated++
	}
	if ns, ok := l.deliveryLatency(key, now); ok {
		r.slice(now).deliver.add(ns)
	} else {
		r.untimed++
	}
}

func (r *workerResult) ackedOne(l *ledger, key uint64, now time.Time) {
	r.item(now)
	if !l.ack(key) {
		r.c.duplicated++
	}
}

func recOf(recs []*recorder, w int) *recorder {
	if recs == nil {
		return nil
	}
	return recs[w]
}

// ---- turn-pairs: the paper's queue on its own ----

type turnPairs struct {
	q   turnqueue.Queue[uint64]
	hs  [workers]*turnqueue.Handle
	led *ledger
	// next[c][p] is the lowest sequence number consumer c may still see
	// from producer p: a linearizable FIFO queue hands each consumer any
	// one producer's items in order.
	next [workers][workers]uint64
}

func setupTurnPairs(uint64, *tracer) (instance, error) {
	p := &turnPairs{q: turnqueue.NewTurn[uint64](), led: newLedger(workers)}
	for i := range p.hs {
		h, err := p.q.Register()
		if err != nil {
			return nil, fmt.Errorf("register handle %d: %w", i, err)
		}
		p.hs[i] = h
	}
	return p, nil
}

func (p *turnPairs) run(ctl *phaseCtl, recs []*recorder) []*workerResult {
	return runWorkers(ctl, func(w int, res *workerResult) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		h, rec := p.hs[w], recOf(recs, w)
		for !ctl.stop.Load() {
			seq := p.led.produce(w, 1)
			t0 := time.Now()
			p.led.stampProduce(w, seq, 1, t0)
			p.q.Enqueue(h, makeKey(w, seq))
			t1 := time.Now()
			v, ok := p.q.Dequeue(h)
			t2 := time.Now()
			res.timed(kindPut, t0, t1)
			res.timed(kindTake, t1, t2)
			if rec != nil {
				rec.end("turnqueue", "turnqueue.enqueue", 0, t0, t1)
				rec.end("turnqueue", "turnqueue.dequeue", 0, t1, t2)
			}
			if !ok {
				res.c.emptyPairs++
				continue
			}
			res.item(t2)
			res.delivered(p.led, v, true, t2)
			p.checkOrder(w, v, &res.c)
		}
	})
}

func (p *turnPairs) checkOrder(consumer int, key uint64, c *counts) {
	pw, seq := keyWorker(key), keySeq(key)
	if pw >= workers {
		return // the ledger already counted it as never produced
	}
	if seq < p.next[consumer][pw] {
		c.misordered++
		return
	}
	p.next[consumer][pw] = seq + 1
}

func (p *turnPairs) counters() map[string]float64 {
	s := p.q.Snapshot()
	m := map[string]float64{
		"core.enq_overruns": float64(s.EnqOverruns),
		"core.deq_overruns": float64(s.DeqOverruns),
	}
	addReclaim(m, s, "hazard")
	for _, pl := range s.Pools {
		m["pool.reuses"] += float64(pl.Reuses)
		m["pool.allocs"] += float64(pl.Allocs)
	}
	return m
}

// close drains what is left (nothing, unless a dequeue came back
// empty), releases the handles, and checks item conservation and the
// queue's quiescent bounds.
func (p *turnPairs) close() (counts, error) {
	var c counts
	for {
		v, ok := p.q.Dequeue(p.hs[0])
		if !ok {
			break
		}
		if !p.led.deliver(v) {
			c.duplicated++
		}
	}
	for _, h := range p.hs {
		h.Close()
	}
	c.lost = p.led.lost(false)
	s := p.q.Snapshot()
	return c, s.VerifyQuiescent()
}

// addReclaim folds a snapshot's reclamation domains into m under
// prefix: summed retires and deletes, and the worst high-water backlog
// as a share of its bound.
func addReclaim(m map[string]float64, s turnqueue.Snapshot, prefix string) {
	for _, d := range s.Hazard {
		m[prefix+".retires"] += float64(d.Retires)
		m[prefix+".deletes"] += float64(d.Deletes)
		if d.Bound > 0 {
			m[prefix+".max_backlog_ratio"] = max(m[prefix+".max_backlog_ratio"], float64(d.MaxBacklog)/float64(d.Bound))
		}
	}
}

// topicCounters reads the topic's backend snapshot, its stats row and
// the service's admission counters.
func topicCounters(svc *service.Service, t *service.Topic) map[string]float64 {
	m := map[string]float64{}
	s := t.Snapshot()
	for k, v := range s.Counters {
		m["ctr."+k] = float64(v)
	}
	addReclaim(m, s, "reclaim")
	ts := t.Stats()
	m["topic.redelivered"] = float64(ts.Redelivered)
	m["topic.requeued"] = float64(ts.Requeued)
	m["topic.conflicts"] = float64(ts.Conflicts)
	ss := svc.Stats()
	m["admission.shed_quota"] = float64(ss.ShedQuota)
	m["admission.shed_breaker"] = float64(ss.ShedBreaker)
	m["admission.shed_conn"] = float64(ss.ShedConn)
	m["admission.shed_tenant"] = float64(ss.ShedTenant)
	m["service.consume_slots"] = float64(ss.ConsumeSlots)
	m["service.consume_filled"] = float64(ss.ConsumeFilled)
	return m
}

// drainAndVerify is the service-side final gate: Drain must find no
// undelivered and no unacked message, and every topic must pass
// VerifyQuiescent.
func drainAndVerify(svc *service.Service) error {
	ctx, cancel := context.WithTimeout(context.Background(), stuckAfter)
	defer cancel()
	rep, err := svc.Drain(ctx)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	for name, n := range rep.Undelivered {
		if n != 0 || rep.Unacked[name] != 0 {
			return fmt.Errorf("drain: topic %q left %d undelivered and %d unacked", name, n, rep.Unacked[name])
		}
	}
	s := svc.Topic(topicName).Snapshot()
	return s.VerifyQuiescent()
}

// ---- topic-batch: the service's Topic layer driven directly ----

type topicBatch struct {
	svc  *service.Service
	t    *service.Topic
	seed uint64
	led  *ledger
}

func setupTopicBatch(seed uint64, _ *tracer) (instance, error) {
	svc, err := service.New(service.Config{Topics: []string{topicName}})
	if err != nil {
		return nil, err
	}
	return &topicBatch{svc: svc, t: svc.Topic(topicName), seed: seed, led: newLedger(workers)}, nil
}

// batchBufs is one worker's reusable batch state.
type batchBufs struct {
	raw      []byte
	payloads [][]byte
	keys     []uint64
	acks     []service.AckEntry
	scratch  []byte
}

func newBatchBufs() *batchBufs {
	return &batchBufs{raw: make([]byte, 0, batchK*payloadSize), payloads: make([][]byte, batchK)}
}

// fill generates the payloads of worker w's next batch.
func (b *batchBufs) fill(led *ledger, seed uint64, w int) uint64 {
	first := led.produce(w, batchK)
	b.raw = b.raw[:0]
	for i := range b.payloads {
		b.raw = appendPayload(b.raw, seed, makeKey(w, first+uint64(i)))
		b.payloads[i] = b.raw[i*payloadSize : (i+1)*payloadSize]
	}
	b.keys, b.acks = b.keys[:0], b.acks[:0]
	return first
}

// check verifies one delivery and queues its ack.
func (b *batchBufs) check(res *workerResult, led *ledger, seed uint64, id, token uint64, payload []byte, now time.Time) {
	key, ok, scratch := checkPayload(payload, seed, b.scratch)
	b.scratch = scratch
	res.delivered(led, key, ok, now)
	b.keys = append(b.keys, key)
	b.acks = append(b.acks, service.AckEntry{ID: id, Token: token})
}

func (tb *topicBatch) run(ctl *phaseCtl, recs []*recorder) []*workerResult {
	return runWorkers(ctl, func(w int, res *workerResult) {
		rec, b := recOf(recs, w), newBatchBufs()
		ids := make([]uint64, 0, batchK)
		qids := make([]uint64, batchK)
		results := make([]service.AckResult, 0, batchK)
		// ConsumeBatch pins payloads only for the emit call; copy them
		// out, as any consumer must, and check them after the call.
		type got struct {
			id, token uint64
			off, n    int
		}
		var gots []got
		var recv []byte
		emit := func(id, token uint64, p []byte) {
			gots = append(gots, got{id, token, len(recv), len(p)})
			recv = append(recv, p...)
		}
		for !ctl.stop.Load() {
			first := b.fill(tb.led, tb.seed, w)
			t0 := time.Now()
			tb.led.stampProduce(w, first, batchK, t0)
			ids = tb.t.ProduceBatch(tenant, b.payloads, ids[:0])
			t1 := time.Now()
			res.timed(kindPut, t0, t1)
			if rec != nil {
				rec.end("topic", "topic.produce_batch", 0, t0, t1)
			}
			for len(b.acks) < batchK {
				gots, recv = gots[:0], recv[:0]
				c0 := time.Now()
				n := tb.t.ConsumeBatch(c0, qids[:batchK-len(b.acks)], 0, emit)
				c1 := time.Now()
				res.timed(kindTake, c0, c1)
				if rec != nil {
					rec.end("topic", "topic.consume_batch", 0, c0, c1)
				}
				if n == 0 {
					res.empties++
					if c1.After(ctl.deadline) {
						res.err = errStuck
						return
					}
					continue
				}
				for _, g := range gots {
					b.check(res, tb.led, tb.seed, g.id, g.token, recv[g.off:g.off+g.n], c1)
				}
			}
			a0 := time.Now()
			results = tb.t.AckBatch(b.acks, results[:0])
			a1 := time.Now()
			res.timed(kindAck, a0, a1)
			if rec != nil {
				rec.end("topic", "topic.ack_batch", 0, a0, a1)
			}
			for i, r := range results {
				if r != service.AckOK {
					res.c.errored++
					continue
				}
				res.ackedOne(tb.led, b.keys[i], a1)
			}
		}
	})
}

func (tb *topicBatch) counters() map[string]float64 { return topicCounters(tb.svc, tb.t) }

func (tb *topicBatch) close() (counts, error) {
	err := drainAndVerify(tb.svc)
	return counts{lost: tb.led.lost(true)}, err
}

// ---- svc-batch and svc-single: the full HTTP service on loopback ----

type svcInst struct {
	svc     *service.Service
	t       *service.Topic
	srv     *http.Server
	served  chan error
	tcp     tcpStats
	clients [workers]*service.Client
	tts     [workers]*traceTransport
	batch   bool
	seed    uint64
	led     *ledger
}

// setupSvc builds the service as cmd/queued wires it (the handler with
// the per-connection ConnContext), serves it on a loopback listener,
// and opens one connection per client.
func setupSvc(seed uint64, tr *tracer, batch bool) (instance, error) {
	svc, err := service.New(service.Config{Topics: []string{topicName}, QuotaRate: quotaRate, QuotaBurst: quotaBurst})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drainAndVerify(svc)
		return nil, err
	}
	s := &svcInst{svc: svc, t: svc.Topic(topicName), batch: batch, seed: seed, led: newLedger(workers),
		served: make(chan error, 1)}
	s.srv = &http.Server{Handler: traceHandler{inner: svc.Handler(), t: tr}, ConnContext: svc.ConnContext}
	go func() { s.served <- s.srv.Serve(countingListener{Listener: ln, st: &s.tcp}) }()
	base := "http://" + ln.Addr().String()
	for i := range s.clients {
		s.tts[i] = &traceTransport{inner: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
		s.clients[i] = &service.Client{
			Base:    base,
			Tenant:  tenant,
			HTTP:    &http.Client{Transport: s.tts[i]},
			Backoff: service.Backoff{Seed: seed + uint64(i) + 1},
		}
		if err := healthy(s.clients[i]); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// healthy is the readiness probe; it also opens the client's connection.
func healthy(c *service.Client) error {
	resp, err := c.HTTP.Get(c.Base + "/healthz")
	if err != nil {
		return fmt.Errorf("readiness probe: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readiness probe: %s", resp.Status)
	}
	return nil
}

func (s *svcInst) run(ctl *phaseCtl, recs []*recorder) []*workerResult {
	for i, tt := range s.tts {
		tt.rec = recOf(recs, i)
	}
	defer func() {
		for _, tt := range s.tts {
			tt.rec = nil
		}
	}()
	return runWorkers(ctl, func(w int, res *workerResult) {
		c := s.clients[w]
		retries := c.Retries
		if s.batch {
			s.batchLoop(ctl, w, c, recOf(recs, w), res)
		} else {
			s.singleLoop(ctl, w, c, recOf(recs, w), res)
		}
		res.c.refused += c.Retries - retries
		if res.err != nil {
			res.c.errored++
		}
	})
}

// call times one public Client call; with a recorder it is also the
// root span of everything the call causes.
func call(res *workerResult, rec *recorder, kind int, name string, fn func(ctx context.Context) error) (time.Time, error) {
	ctx, id := context.Background(), uint64(0)
	if rec != nil {
		id, ctx = rec.begin(ctx)
	}
	t0 := time.Now()
	err := fn(ctx)
	t1 := time.Now()
	res.timed(kind, t0, t1)
	if rec != nil {
		rec.end("client", name, id, t0, t1)
	}
	return t1, err
}

func (s *svcInst) batchLoop(ctl *phaseCtl, w int, c *service.Client, rec *recorder, res *workerResult) {
	b := newBatchBufs()
	for !ctl.stop.Load() {
		first := b.fill(s.led, s.seed, w)
		var ids []uint64
		_, err := call(res, rec, kindPut, "client.produce_batch", func(ctx context.Context) (err error) {
			s.led.stampProduce(w, first, batchK, time.Now())
			ids, err = c.ProduceBatch(ctx, topicName, b.payloads)
			return err
		})
		if err == nil && len(ids) != batchK {
			err = fmt.Errorf("produce-batch returned %d ids for %d messages", len(ids), batchK)
		}
		if err != nil {
			res.err = err
			return
		}
		for len(b.acks) < batchK {
			var ds []service.Delivery
			done, err := call(res, rec, kindTake, "client.consume_batch", func(ctx context.Context) (err error) {
				ds, err = c.ConsumeBatch(ctx, topicName, batchK-len(b.acks), 0)
				return err
			})
			if err != nil {
				res.err = err
				return
			}
			if len(ds) == 0 {
				res.empties++
				if done.After(ctl.deadline) {
					res.err = errStuck
					return
				}
				continue
			}
			for _, d := range ds {
				b.check(res, s.led, s.seed, d.ID, d.Token, d.Payload, done)
			}
		}
		var results []service.AckResult
		acked, err := call(res, rec, kindAck, "client.ack_batch", func(ctx context.Context) (err error) {
			results, err = c.AckBatch(ctx, topicName, b.acks)
			return err
		})
		if err != nil {
			res.err = err
			return
		}
		for i, r := range results {
			if r != service.AckOK {
				res.c.errored++
				continue
			}
			res.ackedOne(s.led, b.keys[i], acked)
		}
	}
}

func (s *svcInst) singleLoop(ctl *phaseCtl, w int, c *service.Client, rec *recorder, res *workerResult) {
	var payload, scratch []byte
	for !ctl.stop.Load() {
		seq := s.led.produce(w, 1)
		payload = appendPayload(payload[:0], s.seed, makeKey(w, seq))
		_, err := call(res, rec, kindPut, "client.produce", func(ctx context.Context) (err error) {
			s.led.stampProduce(w, seq, 1, time.Now())
			_, err = c.Produce(ctx, topicName, payload)
			return err
		})
		if err != nil {
			res.err = err
			return
		}
		var d *service.Delivery
		for d == nil {
			done, err := call(res, rec, kindTake, "client.consume", func(ctx context.Context) (err error) {
				d, err = c.Consume(ctx, topicName)
				return err
			})
			if err != nil {
				res.err = err
				return
			}
			if d == nil {
				res.empties++
				if done.After(ctl.deadline) {
					res.err = errStuck
					return
				}
				continue
			}
			var key uint64
			var ok bool
			key, ok, scratch = checkPayload(d.Payload, s.seed, scratch)
			res.delivered(s.led, key, ok, done)
			acked, err := call(res, rec, kindAck, "client.ack", func(ctx context.Context) error {
				return c.Ack(ctx, topicName, d.ID, d.Token)
			})
			if err != nil && !errors.Is(err, service.ErrConflict) {
				res.err = err
				return
			}
			if err != nil {
				res.c.errored++
				continue
			}
			res.ackedOne(s.led, key, acked)
		}
	}
}

func (s *svcInst) counters() map[string]float64 {
	m := topicCounters(s.svc, s.t)
	m["tcp.conns"] = float64(s.tcp.conns.Load())
	m["tcp.reads"] = float64(s.tcp.reads.Load())
	m["tcp.writes"] = float64(s.tcp.writes.Load())
	m["tcp.bytes"] = float64(s.tcp.bytes.Load())
	for _, c := range s.clients {
		if c != nil {
			m["client.retries"] += float64(c.Retries)
		}
	}
	return m
}

// close drains and verifies the service, then stops the HTTP server and
// waits for it.
func (s *svcInst) close() (counts, error) {
	err := drainAndVerify(s.svc)
	ctx, cancel := context.WithTimeout(context.Background(), stuckAfter)
	defer cancel()
	if serr := s.srv.Shutdown(ctx); serr != nil && err == nil {
		err = fmt.Errorf("http shutdown: %w", serr)
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = fmt.Errorf("http serve: %w", serr)
	}
	for _, tt := range s.tts {
		if tt != nil {
			tt.inner.CloseIdleConnections()
		}
	}
	return counts{lost: s.led.lost(true)}, err
}
