package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the queue or the service sees;
// every run reports them, untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"deliver_p50_us", "us"},
}

// perLayer are reported by a traced run. A metric of a layer that a
// workload does not reach reads 0.
var perLayer = []metricDef{
	{"fail_ratio", "ratio"},
	{"cpu_us_per_item", "us"},
	{"tail.op_p90_us", "us"},
	{"tail.op_p99_us", "us"},
	{"tail.op_p999_us", "us"},
	{"tail.deliver_p90_us", "us"},
	{"tail.deliver_p99_us", "us"},
	{"runtime.allocs_per_item", "1/item"},
	{"runtime.alloc_bytes_per_item", "B/item"},
	{"runtime.gc_cycles_per_mitem", "1/Mitem"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"core.enq_overruns", "count"},
	{"core.deq_overruns", "count"},
	{"core.pool_reuse_ratio", "ratio"},
	{"hazard.retires_per_item", "1/item"},
	{"hazard.deletes_per_retire", "ratio"},
	{"hazard.max_backlog_ratio", "ratio"},
	{"topic.produce_batch_p50_us", "us"},
	{"topic.produce_batch_p99_us", "us"},
	{"topic.consume_batch_p50_us", "us"},
	{"topic.consume_batch_p99_us", "us"},
	{"topic.ack_batch_p50_us", "us"},
	{"topic.ack_batch_p99_us", "us"},
	{"topic.consume_fill_ratio", "ratio"},
	{"topic.empty_consumes", "count"},
	{"topic.redelivered", "count"},
	{"topic.conflicts", "count"},
	{"topic.requeued", "count"},
	{"turnplus.fast_enq_ratio", "ratio"},
	{"turnplus.fast_deq_ratio", "ratio"},
	{"turnplus.ring_allocs_per_item", "1/item"},
	{"turnplus.ring_seals_per_item", "1/item"},
	{"sharded.steal_ratio", "ratio"},
	{"sharded.imbalance_pct", "%"},
	{"auto.lease_hit_ratio", "ratio"},
	{"auto.waits", "count"},
	{"reclaim.retires_per_item", "1/item"},
	{"reclaim.max_backlog_ratio", "ratio"},
	{"handler.produce_p50_us", "us"},
	{"handler.produce_p99_us", "us"},
	{"handler.consume_p50_us", "us"},
	{"handler.consume_p99_us", "us"},
	{"handler.ack_p50_us", "us"},
	{"handler.ack_p99_us", "us"},
	{"handler.produce_batch_p50_us", "us"},
	{"handler.produce_batch_p99_us", "us"},
	{"handler.consume_batch_p50_us", "us"},
	{"handler.consume_batch_p99_us", "us"},
	{"handler.ack_batch_p50_us", "us"},
	{"handler.ack_batch_p99_us", "us"},
	{"admission.shed_quota", "count"},
	{"admission.shed_breaker", "count"},
	{"admission.shed_conn", "count"},
	{"admission.shed_tenant", "count"},
	{"service.batch_fill_ratio", "ratio"},
	{"http.roundtrip_p50_us", "us"},
	{"http.self_p50_us", "us"},
	{"tcp.conns_opened", "count"},
	{"tcp.bytes_per_item", "B/item"},
	{"tcp.reads_per_req", "1/req"},
	{"tcp.writes_per_req", "1/req"},
	{"client.self_p50_us", "us"},
	{"client.retries", "count"},
	{"ledger.op_us_per_item", "us/item"},
	{"ledger.turnqueue_us_per_item", "us/item"},
	{"ledger.topic_us_per_item", "us/item"},
	{"ledger.client_us_per_item", "us/item"},
	{"ledger.http_us_per_item", "us/item"},
	{"ledger.handler_us_per_item", "us/item"},
	{"ledger.gap_pct", "%"},
	{"ledger.bench_share_pct", "%"},
	{"trace.unmatched", "count"},
	{"trace.overhead_items_per_s_pct", "%"},
	{"trace.overhead_op_p50_pct", "%"},
}

// ledgerLayers are the layers whose self time the traced run splits an
// operation into, per workload; the service's admission, codec, topic
// and backend all run inside "handler".
var ledgerLayers = map[string][]string{
	"turn-pairs":  {"turnqueue"},
	"topic-batch": {"topic"},
	"svc-batch":   {"client", "http", "handler"},
	"svc-single":  {"client", "http", "handler"},
}

// ledgerTolerancePct is how far the layers' summed self time may differ
// from the summed operation time before the ledger reports a gap.
const ledgerTolerancePct = 5.0

// runtimeStats are process-wide runtime counters at one instant.
type runtimeStats struct {
	mallocs, bytes, gcs, pauseNs uint64
	cpu                          time.Duration
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeStats{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs, cpu: cpu}
}

// heapSampler records the peak of live heap objects during a phase.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

const heapSampleEvery = 10 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.done
}

// phaseResult is one timed phase of a run.
type phaseResult struct {
	wall        time.Duration
	c           counts
	op, deliver hist // the whole phase, all call kinds
	slices      [numSlices + 1]timeSlice
	width       time.Duration
	untimed     int64
	empties     int64
	rt          runtimeStats // deltas over the phase
	heapPeak    uint64
	before      map[string]float64
	after       map[string]float64
	trace       *traceSummary
	err         error
}

// measure runs one phase of d; with a tracer the phase is traced.
func measure(inst instance, d time.Duration, tr *tracer) *phaseResult {
	var recs []*recorder
	if tr != nil {
		for range workers {
			recs = append(recs, tr.recorder())
		}
	}
	p := &phaseResult{before: inst.counters(), width: d / numSlices}
	sampler := startHeapSampler()
	rt0 := readRuntime()
	ctl := &phaseCtl{start: time.Now(), width: p.width, deadline: time.Now().Add(d + stuckAfter)}
	done := make(chan []*workerResult, 1)
	go func() { done <- inst.run(ctl, recs) }()
	time.Sleep(time.Until(ctl.start.Add(d)))
	ctl.stop.Store(true)
	results := <-done
	p.wall = time.Since(ctl.start)
	rt1 := readRuntime()
	p.heapPeak = sampler.finish()
	p.after = inst.counters()
	p.rt = runtimeStats{
		mallocs: rt1.mallocs - rt0.mallocs,
		bytes:   rt1.bytes - rt0.bytes,
		gcs:     rt1.gcs - rt0.gcs,
		pauseNs: rt1.pauseNs - rt0.pauseNs,
		cpu:     rt1.cpu - rt0.cpu,
	}
	for _, r := range results {
		p.c.add(r.c)
		for i := range r.slices {
			s, rs := &p.slices[i], &r.slices[i]
			s.items += rs.items
			for k := range rs.op {
				s.op[k].merge(&rs.op[k])
				p.op.merge(&rs.op[k])
			}
			s.deliver.merge(&rs.deliver)
			p.deliver.merge(&rs.deliver)
		}
		p.untimed += r.untimed
		p.empties += r.empties
		if r.err != nil && p.err == nil {
			p.err = r.err
		}
	}
	if tr != nil {
		s := tr.summary()
		p.trace = &s
	}
	return p
}

func (p *phaseResult) delta(name string) float64 { return p.after[name] - p.before[name] }

func perItem(v float64, items int64) float64 {
	if items == 0 {
		return 0
	}
	return v / float64(items)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// e2eMetrics computes the end-to-end metrics of one phase. Each is the
// median over the phase's time slices of that slice's figure.
func e2eMetrics(p *phaseResult, setup float64) map[string]float64 {
	if p.width == 0 {
		return map[string]float64{"setup_s": setup} // the run failed before measuring
	}
	per := func(f func(s *timeSlice) float64) float64 {
		xs := make([]float64, numSlices)
		for i := range xs {
			xs[i] = f(&p.slices[i])
		}
		return median(xs)
	}
	return map[string]float64{
		"setup_s":        setup,
		"items_per_s":    per(func(s *timeSlice) float64 { return float64(s.items) / p.width.Seconds() }),
		"op_p50_us":      per(opMedian),
		"deliver_p50_us": per(func(s *timeSlice) float64 { return s.deliver.quantile(0.5) / 1e3 }),
	}
}

// opMedian is the mean, over the call kinds a slice saw, of each kind's
// median latency.
func opMedian(s *timeSlice) float64 {
	sum, kinds := 0.0, 0
	for k := range s.op {
		if s.op[k].n > 0 {
			sum += s.op[k].quantile(0.5) / 1e3
			kinds++
		}
	}
	if kinds == 0 {
		return 0
	}
	return sum / float64(kinds)
}

// tails are the latency percentiles that did not repeat run to run
// within a tenth on the reference host, so they are per-layer metrics:
// taken over the whole untraced phase, not per slice.
var tails = []struct {
	name     string
	q        float64
	delivery bool
}{
	{"tail.op_p90_us", 0.9, false},
	{"tail.op_p99_us", 0.99, false},
	{"tail.op_p999_us", 0.999, false},
	{"tail.deliver_p90_us", 0.9, true},
	{"tail.deliver_p99_us", 0.99, true},
}

func (p *phaseResult) tail(q float64, delivery bool) (us float64, n uint64) {
	h := &p.op
	if delivery {
		h = &p.deliver
	}
	return h.quantile(q) / 1e3, h.n
}

// layerMetrics computes the per-layer metrics: counters and runtime
// figures from the untraced phase a, spans from the traced phase b.
func layerMetrics(wl string, a, b *phaseResult, total counts) map[string]float64 {
	items := a.c.items
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	m["fail_ratio"] = total.failRatio()
	m["cpu_us_per_item"] = perItem(float64(a.rt.cpu.Nanoseconds())/1e3, items)
	for _, t := range tails {
		m[t.name], _ = a.tail(t.q, t.delivery)
	}
	m["runtime.allocs_per_item"] = perItem(float64(a.rt.mallocs), items)
	m["runtime.alloc_bytes_per_item"] = perItem(float64(a.rt.bytes), items)
	m["runtime.gc_cycles_per_mitem"] = perItem(float64(a.rt.gcs)*1e6, items)
	m["runtime.gc_pause_ms"] = float64(a.rt.pauseNs) / 1e6
	m["runtime.heap_peak_mb"] = float64(a.heapPeak) / (1 << 20)

	// The paper's queue (turn-pairs).
	m["core.enq_overruns"] = a.after["core.enq_overruns"]
	m["core.deq_overruns"] = a.after["core.deq_overruns"]
	m["core.pool_reuse_ratio"] = ratio(a.delta("pool.reuses"), a.delta("pool.reuses")+a.delta("pool.allocs"))
	m["hazard.retires_per_item"] = perItem(a.delta("hazard.retires"), items)
	m["hazard.deletes_per_retire"] = ratio(a.delta("hazard.deletes"), a.delta("hazard.retires"))
	m["hazard.max_backlog_ratio"] = a.after["hazard.max_backlog_ratio"]

	// Topic, backend and admission counters (topic-batch, svc-*).
	m["topic.empty_consumes"] = float64(a.empties)
	m["topic.redelivered"] = a.delta("topic.redelivered")
	m["topic.conflicts"] = a.delta("topic.conflicts")
	m["topic.requeued"] = a.delta("topic.requeued")
	fastEnq, fastDeq := a.delta("ctr.fast_enq_hits"), a.delta("ctr.fast_deq_hits")
	m["turnplus.fast_enq_ratio"] = ratio(fastEnq, fastEnq+a.delta("ctr.enq_fallbacks"))
	m["turnplus.fast_deq_ratio"] = ratio(fastDeq, fastDeq+a.delta("ctr.deq_fallbacks"))
	m["turnplus.ring_allocs_per_item"] = perItem(a.delta("ctr.ring_allocs"), items)
	m["turnplus.ring_seals_per_item"] = perItem(a.delta("ctr.ring_seals"), items)
	steals := a.delta("ctr.deq_steals")
	m["sharded.steal_ratio"] = ratio(steals, steals+a.delta("ctr.deq_local"))
	m["sharded.imbalance_pct"] = a.after["ctr.shard_imbalance_pct"]
	hits := a.delta("ctr.lease_hits")
	m["auto.lease_hit_ratio"] = ratio(hits, hits+a.delta("ctr.lease_steals"))
	m["auto.waits"] = a.delta("ctr.auto_waits")
	m["reclaim.retires_per_item"] = perItem(a.delta("reclaim.retires"), items)
	m["reclaim.max_backlog_ratio"] = a.after["reclaim.max_backlog_ratio"]
	for _, k := range []string{"admission.shed_quota", "admission.shed_breaker", "admission.shed_conn", "admission.shed_tenant"} {
		m[k] = a.delta(k)
	}
	m["service.batch_fill_ratio"] = ratio(a.delta("service.consume_filled"), a.delta("service.consume_slots"))

	// Loopback TCP and the client (svc-*). A request is one HTTP
	// round trip: every public call, plus each retried attempt.
	reqs := float64(a.c.attempted + a.c.refused)
	m["tcp.conns_opened"] = a.after["tcp.conns"]
	m["tcp.bytes_per_item"] = perItem(a.delta("tcp.bytes"), items)
	m["tcp.reads_per_req"] = ratio(a.delta("tcp.reads"), reqs)
	m["tcp.writes_per_req"] = ratio(a.delta("tcp.writes"), reqs)
	m["client.retries"] = a.delta("client.retries")

	if b == nil || b.trace == nil {
		return m
	}
	t := b.trace
	for _, op := range []string{"produce_batch", "consume_batch", "ack_batch"} {
		m["topic."+op+"_p50_us"] = t.quantileUS("topic."+op, 0.5)
		m["topic."+op+"_p99_us"] = t.quantileUS("topic."+op, 0.99)
	}
	if wl == "topic-batch" {
		m["topic.consume_fill_ratio"] = ratio(float64(b.c.items), float64(batchK*t.count("topic.consume_batch")))
	} else {
		m["topic.consume_fill_ratio"] = m["service.batch_fill_ratio"]
	}
	for _, e := range endpoints {
		e = strings.ReplaceAll(e, "-", "_")
		m["handler."+e+"_p50_us"] = t.quantileUS("handler."+e, 0.5)
		m["handler."+e+"_p99_us"] = t.quantileUS("handler."+e, 0.99)
	}
	m["http.roundtrip_p50_us"] = t.quantileUS("http.roundtrip", 0.5)
	m["http.self_p50_us"] = t.quantileUS("http.self", 0.5)
	m["client.self_p50_us"] = t.quantileUS("client.self", 0.5)

	led := ledgerOf(wl, b)
	m["ledger.op_us_per_item"] = led.opPerItem
	for _, l := range ledgerLayers[wl] {
		m["ledger."+l+"_us_per_item"] = led.layers[l]
	}
	m["ledger.gap_pct"] = led.gapPct
	m["ledger.bench_share_pct"] = led.benchPct
	m["trace.unmatched"] = float64(t.unmatched)
	ua, ub := e2eMetrics(a, 0), e2eMetrics(b, 0)
	m["trace.overhead_items_per_s_pct"] = pctChange(ua["items_per_s"], ub["items_per_s"])
	m["trace.overhead_op_p50_pct"] = pctChange(ua["op_p50_us"], ub["op_p50_us"])
	return m
}

func pctChange(from, to float64) float64 {
	if from == 0 {
		return 0
	}
	return 100 * (to - from) / from
}

// layerLedger splits the traced phase's operation time per item into
// the layers' self times.
type layerLedger struct {
	opPerItem float64            // summed public-call time per item, us
	layers    map[string]float64 // self time per item, us
	sum       float64
	gapPct    float64 // (sum - op) / op
	benchPct  float64 // worker time spent outside public calls
}

func ledgerOf(wl string, b *phaseResult) layerLedger {
	t := b.trace
	items := float64(b.c.items)
	led := layerLedger{layers: map[string]float64{}}
	if items == 0 {
		return led
	}
	opNS := t.opNS
	led.opPerItem = float64(opNS) / items / 1e3
	for _, l := range ledgerLayers[wl] {
		led.layers[l] = float64(t.layerSelf[l]) / items / 1e3
		led.sum += led.layers[l]
	}
	led.gapPct = pctChange(led.opPerItem, led.sum)
	led.benchPct = 100 * (1 - float64(opNS)/(float64(workers)*float64(b.wall.Nanoseconds())))
	return led
}

// result is one workload's finished run.
type result struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	setups   []float64
	a, b     *phaseResult
	total    counts
	errs     []error
	e2e      map[string]float64
	layer    map[string]float64
	ledger   layerLedger
}

func (r *result) correct() bool { return len(r.errs) == 0 && r.total.failed() == 0 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// report prints the human-readable account of one run.
func (r *result) report(w io.Writer, host hostInfo) {
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  trace=%v\n", r.workload, r.seed, r.seconds, r.traced)
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s source=%s seed=%d\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPU, host.Commit, host.Source, r.seed)
	a := r.a
	minOp, minDeliver := a.op.n, a.deliver.n
	for i := 0; i < numSlices; i++ {
		for k := range a.slices[i].op {
			if n := a.slices[i].op[k].n; n > 0 {
				minOp = min(minOp, n)
			}
		}
		minDeliver = min(minDeliver, a.slices[i].deliver.n)
	}
	samples := map[string]string{
		"setup_s":        fmt.Sprintf("median of %d set-ups", len(r.setups)),
		"items_per_s":    fmt.Sprintf("n=%d items in %.3f s, %d workers, closed loop", a.c.items, a.wall.Seconds(), workers),
		"op_p50_us":      sampleNote(0.5, minOp, "calls of one kind in the smallest slice; the mean of the kinds' medians"),
		"deliver_p50_us": sampleNote(0.5, minDeliver, "deliveries in the smallest slice"),
	}
	if a.untimed > 0 {
		samples["deliver_p50_us"] += fmt.Sprintf(", %d deliveries untimed", a.untimed)
	}
	fmt.Fprintf(w, "end-to-end (untraced; medians over %d slices of %.3f s):\n", numSlices, a.width.Seconds())
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-16s %14.6g %-6s (%s)\n", d.name, r.e2e[d.name], d.unit, samples[d.name])
	}
	fmt.Fprintln(w, "tails (untraced, whole phase):")
	for _, t := range tails {
		us, n := a.tail(t.q, t.delivery)
		what := "calls"
		if t.delivery {
			what = "deliveries"
		}
		fmt.Fprintf(w, "  %-20s %12.6g us     (%s)\n", t.name, us, sampleNote(t.q, n, what))
	}
	t := r.total
	fmt.Fprintf(w, "correctness: attempted=%d failed=%d (refused=%d errored=%d lost=%d duplicated=%d mismatched=%d empty_pairs=%d misordered=%d)\n",
		t.attempted, t.failed(), t.refused, t.errored, t.lost, t.duplicated, t.mismatched, t.emptyPairs, t.misordered)
	for _, err := range r.errs {
		fmt.Fprintf(w, "  FAIL: %v\n", err)
	}
	if r.layer == nil {
		return
	}
	fmt.Fprintln(w, "per-layer (counters from the untraced phase, spans from the traced phase):")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, r.layer[d.name], d.unit)
	}
	led := r.ledger
	fmt.Fprintf(w, "layer ledger, traced phase, self time per item (n=%d items):\n", r.b.c.items)
	for _, l := range ledgerLayers[r.workload] {
		fmt.Fprintf(w, "  %-10s %10.4f us\n", l, led.layers[l])
	}
	verdict := "within"
	if math.Abs(led.gapPct) > ledgerTolerancePct {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(w, "  %-10s %10.4f us  vs op time %.4f us/item: gap %+.2f%%, %s the %.0f%% tolerance\n",
		"sum", led.sum, led.opPerItem, led.gapPct, verdict, ledgerTolerancePct)
	fmt.Fprintf(w, "  worker time outside public calls (the benchmark's own code): %.1f%%\n", led.benchPct)
	if r.b.trace.unmatched > 0 {
		fmt.Fprintf(w, "  %d round trips had no handler span; their server time counts as http\n", r.b.trace.unmatched)
	}
	fmt.Fprintln(w, "tracing overhead (traced minus untraced):")
	ub := e2eMetrics(r.b, r.e2e["setup_s"])
	for _, d := range endToEnd[1:] {
		fmt.Fprintf(w, "  %-16s %14.6g -> %14.6g %-6s (%+.1f%%)\n", d.name, r.e2e[d.name], ub[d.name], d.unit, pctChange(r.e2e[d.name], ub[d.name]))
	}
	fmt.Fprintf(w, "spans: %d kept, %d beyond the keep limit\n", len(r.b.trace.kept), r.b.trace.dropped)
}

// sampleNote states a percentile's sample count and the highest
// percentile that count supports, and flags q if it is not supported.
func sampleNote(q float64, n uint64, what string) string {
	note := fmt.Sprintf("n=%d %s", n, what)
	if hi, ok := highestPercentile(n); ok {
		note += ", highest supported " + pctName(hi)
	}
	if !supported(q, n) {
		note += fmt.Sprintf(", UNSUPPORTED: fewer than %d samples beyond %s", minBeyond, pctName(q))
	}
	return note
}
