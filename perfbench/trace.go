package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch. Req is shared by every span of one public call.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime is s's duration minus the part of its interval that its
// children cover. Overlapping children count their union once, and a
// child reaching outside s is clipped to s.
func selfTime(s span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	for i := 0; i < len(ivs); {
		lo, hi := ivs[i].lo, ivs[i].hi
		for i++; i < len(ivs) && ivs[i].lo <= hi; i++ {
			hi = max(hi, ivs[i].hi)
		}
		covered += hi - lo
	}
	return s.End - s.Start - covered
}

// spanHeader carries the round-trip span's id from the client's
// RoundTripper to the server's handler wrapper.
const spanHeader = "X-Perfbench-Span"

// keptPerRecorder bounds the raw spans each worker keeps for the span
// file; every span, kept or not, feeds the per-layer aggregates.
const keptPerRecorder = 20_000

// serverRing must exceed the number of requests in flight at once (two
// in this benchmark) so that a handler span survives until its client
// collects it.
const serverRing = 1 << 12

// tracer owns the span clock, the id stream, the server-side handoff
// ring, and the per-worker recorders.
type tracer struct {
	epoch  time.Time
	ids    atomic.Uint64
	server [serverRing]serverSlot

	mu   sync.Mutex
	recs []*recorder
}

// serverSlot hands one handler span to the client that sent the
// request. rt is written last and is the slot's validity tag.
type serverSlot struct {
	rt         atomic.Uint64
	endpoint   atomic.Int32
	start, end atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }
func (t *tracer) newID() uint64         { return t.ids.Add(1) }

// recorder is one worker's span sink; only that worker's goroutine
// uses it.
type recorder struct {
	t         *tracer
	hists     map[string]*hist
	layerSelf map[string]int64 // summed self time per layer
	opNS      int64            // summed duration of the public calls
	kept      []span
	dropped   int64
	unmatched int64 // round trips whose handler span never arrived
	pending   []span
}

func (t *tracer) recorder() *recorder {
	r := &recorder{t: t, hists: map[string]*hist{}, layerSelf: map[string]int64{}}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

func (r *recorder) observe(name string, ns int64) {
	h := r.hists[name]
	if h == nil {
		h = new(hist)
		r.hists[name] = h
	}
	h.add(ns)
}

func (r *recorder) keep(s span) {
	if len(r.kept) < keptPerRecorder {
		r.kept = append(r.kept, s)
	} else {
		r.dropped++
	}
}

type spanKey struct{}

// begin starts a public call: it returns the call's span id and a
// context that carries it to the RoundTripper.
func (r *recorder) begin(ctx context.Context) (uint64, context.Context) {
	id := r.t.newID()
	return id, context.WithValue(ctx, spanKey{}, id)
}

// end closes the public call id (0 for calls that never reach HTTP),
// attributing its self time to layer, and resolves the round trips and
// handler spans it caused.
func (r *recorder) end(layer, name string, id uint64, start, end time.Time) {
	if id == 0 {
		id = r.t.newID()
	}
	call := span{ID: id, Req: id, Name: name, Start: r.t.at(start), End: r.t.at(end)}
	r.observe(name, call.End-call.Start)
	r.opNS += call.End - call.Start
	self := selfTime(call, r.pending)
	r.observe(layer+".self", self)
	r.layerSelf[layer] += self
	r.keep(call)
	for _, rt := range r.pending {
		rt.Req = id
		var kids []span
		if h, ok := r.t.takeServer(rt.ID); ok {
			h.ID, h.Parent, h.Req = r.t.newID(), rt.ID, id
			kids = append(kids, h)
			r.observe(h.Name, h.End-h.Start)
			r.layerSelf["handler"] += h.End - h.Start
			r.keep(h)
		} else {
			r.unmatched++
		}
		r.observe(rt.Name, rt.End-rt.Start)
		rtSelf := selfTime(rt, kids)
		r.observe("http.self", rtSelf)
		r.layerSelf["http"] += rtSelf
		r.keep(rt)
	}
	r.pending = r.pending[:0]
}

var endpoints = []string{"produce", "consume", "ack", "produce-batch", "consume-batch", "ack-batch"}

func endpointIndex(path string) int32 {
	last := path[strings.LastIndexByte(path, '/')+1:]
	for i, e := range endpoints {
		if e == last {
			return int32(i)
		}
	}
	return -1
}

func (t *tracer) putServer(rt uint64, endpoint int32, start, end int64) {
	s := &t.server[rt%serverRing]
	s.rt.Store(0)
	s.endpoint.Store(endpoint)
	s.start.Store(start)
	s.end.Store(end)
	s.rt.Store(rt)
}

func (t *tracer) takeServer(rt uint64) (span, bool) {
	s := &t.server[rt%serverRing]
	if s.rt.Load() != rt {
		return span{}, false
	}
	e, start, end := s.endpoint.Load(), s.start.Load(), s.end.Load()
	if s.rt.Load() != rt || e < 0 {
		return span{}, false
	}
	return span{Name: "handler." + strings.ReplaceAll(endpoints[e], "-", "_"), Start: start, End: end}, true
}

// traceTransport times each HTTP round trip, from RoundTrip to the end
// of the response body, and stamps its span id on the request. rec is
// set between phases, while no request is in flight.
type traceTransport struct {
	inner *http.Transport
	rec   *recorder
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	if tt.rec == nil || parent == 0 {
		return tt.inner.RoundTrip(req)
	}
	rt := span{ID: tt.rec.t.newID(), Parent: parent, Name: "http.roundtrip"}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(rt.ID, 10))
	rt.Start = tt.rec.t.at(time.Now())
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		rt.End = tt.rec.t.at(time.Now())
		tt.rec.pending = append(tt.rec.pending, rt)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: tt.rec, rt: rt}
	return resp, nil
}

// spanBody ends the round-trip span at the body's EOF or Close,
// whichever comes first, so that reading the response counts as HTTP
// time rather than client time.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	rt   span
	done bool
}

func (b *spanBody) finish() {
	if !b.done {
		b.done = true
		b.rt.End = b.rec.t.at(time.Now())
		b.rec.pending = append(b.rec.pending, b.rt)
	}
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// traceHandler times Service.Handler().ServeHTTP for requests that
// carry a span header; others pass straight through.
type traceHandler struct {
	inner http.Handler
	t     *tracer
}

func (h traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v := r.Header.Get(spanHeader)
	if v == "" {
		h.inner.ServeHTTP(w, r)
		return
	}
	rt, err := strconv.ParseUint(v, 10, 64)
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	end := time.Now()
	if err == nil {
		h.t.putServer(rt, endpointIndex(r.URL.Path), h.t.at(start), h.t.at(end))
	}
}

// tcpStats counts the server side of the loopback TCP layer.
type tcpStats struct {
	conns, reads, writes, bytes atomic.Int64
}

type countingListener struct {
	net.Listener
	st *tcpStats
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.st.conns.Add(1)
	return countingConn{Conn: c, st: l.st}, nil
}

type countingConn struct {
	net.Conn
	st *tcpStats
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	c.st.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.st.writes.Add(1)
	c.st.bytes.Add(int64(n))
	return n, err
}

// traceSummary merges every recorder of a traced phase.
type traceSummary struct {
	hists     map[string]*hist
	layerSelf map[string]int64
	opNS      int64
	kept      []span
	dropped   int64
	unmatched int64
}

func (t *tracer) summary() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := traceSummary{hists: map[string]*hist{}, layerSelf: map[string]int64{}}
	for _, r := range t.recs {
		for name, h := range r.hists {
			if s.hists[name] == nil {
				s.hists[name] = new(hist)
			}
			s.hists[name].merge(h)
		}
		for l, ns := range r.layerSelf {
			s.layerSelf[l] += ns
		}
		s.opNS += r.opNS
		s.kept = append(s.kept, r.kept...)
		s.dropped += r.dropped
		s.unmatched += r.unmatched
	}
	return s
}

// quantileUS returns a span's q-quantile in microseconds (0 when the
// span never occurred).
func (s traceSummary) quantileUS(name string, q float64) float64 {
	if h := s.hists[name]; h != nil {
		return h.quantile(q) / 1e3
	}
	return 0
}

// count returns how many spans of that name occurred.
func (s traceSummary) count(name string) uint64 {
	if h := s.hists[name]; h != nil {
		return h.n
	}
	return 0
}

// write stores the kept spans as JSON lines.
func (s traceSummary) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.kept {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
