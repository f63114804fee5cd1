package service

// The batched hot path. The single-op endpoints pay the full HTTP +
// JSON + admission toll per message; these three endpoints amortize all
// of it over k messages:
//
//	POST /topics/{topic}/produce-batch              frame in → frame of ids
//	POST /topics/{topic}/consume-batch?max=&wait=   → frame of deliveries | 204
//	POST /topics/{topic}/ack-batch                  frame in → frame of results
//
// One breaker sample, one GCRA quota advance (AdmitN: k tokens at one
// CAS), one connection-cap check, and one reqWG registration admit the
// whole batch; the topic layer then pays one slab of delivery records
// and one backend batch op (EnqueueBatch/DequeueBatch) for the k
// messages, and resolves each id to its record without a lock. Bodies are length-prefixed frames (frame.go) encoded into
// and decoded out of per-connection pooled buffers, so a steady batched
// workload allocates nothing per message in the handler.
//
// Partial admission is first-class: a half-full token bucket admits the
// batch's first m messages and the response says so (m ids, m results,
// or max clamped to m) with Retry-After stamped for the remainder —
// clients retry the suffix, not the whole batch. Only a zero-admission
// batch is refused outright with 429.

import (
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"turnqueue/internal/account"
	"turnqueue/internal/inject"
)

// maxBatchBody bounds one batch request body; maxBatchWait bounds the
// consume-batch long poll (a poll longer than this is re-issued by the
// client, which keeps Drain from waiting on parked pollers).
const (
	maxBatchBody = 8 << 20
	maxBatchWait = 30 * time.Second
	// pollRecheck bounds how long a long-poller sleeps between checks of
	// the draining/closing flags once parked on the wake channel.
	pollRecheck = 25 * time.Millisecond
)

var errBodyTooLarge = errors.New("batch body too large")

// bufSet is one request's worth of reusable buffers. Sets are pooled
// per connection (connState.bufs, via ConnContext) so a busy connection
// reuses its own right-sized buffers; handlers reached without a
// ConnContext (direct Handler() use in tests) fall back to a package
// pool.
type bufSet struct {
	body     []byte
	resp     []byte
	payloads [][]byte
	ids      []uint64
	acks     []AckEntry
	results  []AckResult
}

var bufsFallback = sync.Pool{New: func() any { return new(bufSet) }}

func (s *Service) bufs(r *http.Request) (*bufSet, func()) {
	pool := &bufsFallback
	if cs, _ := r.Context().Value(connKey{}).(*connState); cs != nil {
		pool = &cs.bufs
	}
	b, _ := pool.Get().(*bufSet)
	if b == nil {
		b = new(bufSet)
	}
	return b, func() { pool.Put(b) }
}

// readBody reads r into buf (reusing its capacity, growing as needed)
// up to max bytes; a body larger than max is an error, not a silent
// truncation.
func readBody(r io.Reader, buf []byte, max int) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			if len(buf) > max {
				return buf, errBodyTooLarge
			}
			next := 2 * cap(buf)
			if next < 512 {
				next = 512
			}
			if next > max+1 {
				next = max + 1 // one spare byte proves oversize vs exactly-max
			}
			nb := make([]byte, len(buf), next)
			copy(nb, buf)
			buf = nb
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			if len(buf) > max {
				return buf, errBodyTooLarge
			}
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// batchAdmitted is admitted()'s batch sibling: tenant validation,
// draining gate + reqWG registration, and the per-connection cap. The
// breaker sample and the quota charge are deferred into the handlers —
// the batch size k is only known after the body (or query) is parsed,
// and AdmitN needs k.
func (s *Service) batchAdmitted(h func(http.ResponseWriter, *http.Request, *Topic)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := s.topics[r.PathValue("topic")]
		if t == nil {
			http.Error(w, "unknown topic", http.StatusNotFound)
			return
		}
		if !validTenant(tenantOf(r)) {
			s.shedTenant.Add(1)
			http.Error(w, "invalid tenant name", http.StatusBadRequest)
			return
		}
		// Same admitMu discipline as admitted(): the draining check and
		// the reqWG.Add are one atomic step against Drain.
		s.admitMu.RLock()
		if s.draining.Load() {
			s.admitMu.RUnlock()
			s.shedDraining.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		s.reqWG.Add(1)
		s.admitMu.RUnlock()
		defer s.reqWG.Done()
		if cs, _ := r.Context().Value(connKey{}).(*connState); cs != nil {
			if !cs.enter() {
				s.shedConn.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, "connection in-flight cap", http.StatusTooManyRequests)
				return
			}
			defer cs.exit()
		}
		h(w, r, t)
	}
}

// admitBatch charges k messages against the tenant's bucket at one CAS.
// ok=false means nothing was admitted and the 429 is already written.
// 0 < m < k is a partial admission: Retry-After is stamped for the
// refused suffix and the caller proceeds with the first m. The tenant's
// quota is returned (nil when quotas are disabled) so a caller that ends
// up using fewer than m tokens can RefundN the difference.
func (s *Service) admitBatch(w http.ResponseWriter, r *http.Request, k int) (q *account.Quota, m int, ok bool) {
	if s.tenants == nil || k == 0 {
		return nil, k, true
	}
	q, known := s.tenants.Get(tenantOf(r))
	if !known {
		s.shedTenant.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "tenant registry full", http.StatusTooManyRequests)
		return nil, 0, false
	}
	m, retry := q.AdmitN(time.Now(), k)
	if m == 0 {
		s.shedQuota.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
		http.Error(w, "tenant quota exceeded", http.StatusTooManyRequests)
		return q, 0, false
	}
	if m < k {
		s.shedQuota.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
	}
	return q, m, true
}

// writeFrame sends one batch frame with an exact Content-Length so the
// client's pooled read buffer can be sized in one step.
func writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header().Set("Content-Type", batchContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

func (s *Service) handleProduceBatch(w http.ResponseWriter, r *http.Request, t *Topic) {
	if t.br != nil && !t.br.allow(time.Now()) {
		s.shedBreaker.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded: reclamation backlog near bound", http.StatusServiceUnavailable)
		return
	}
	bufs, release := s.bufs(r)
	defer release()
	body, err := readBody(r.Body, bufs.body, maxBatchBody)
	bufs.body = body
	if err != nil {
		status := http.StatusBadRequest
		if err == errBodyTooLarge {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "read body: "+err.Error(), status)
		return
	}
	payloads, err := parseProduceBatch(body, maxPayload, bufs.payloads[:0])
	bufs.payloads = payloads
	if err != nil {
		http.Error(w, "produce-batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	_, m, ok := s.admitBatch(w, r, len(payloads))
	if !ok {
		return
	}
	bufs.ids = t.ProduceBatch(tenantOf(r), payloads[:m], bufs.ids[:0])
	s.noteBatch(m)
	bufs.resp = appendIDs(bufs.resp[:0], bufs.ids)
	writeFrame(w, bufs.resp)
}

func (s *Service) handleConsumeBatch(w http.ResponseWriter, r *http.Request, t *Topic) {
	q := r.URL.Query()
	max := 32
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "consume-batch: max must be a positive integer", http.StatusBadRequest)
			return
		}
		max = n
		if max > maxBatchMsgs {
			max = maxBatchMsgs
		}
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			http.Error(w, "consume-batch: wait must be a non-negative duration", http.StatusBadRequest)
			return
		}
		wait = d
		if wait > maxBatchWait {
			wait = maxBatchWait
		}
	}
	quota, m, ok := s.admitBatch(w, r, max)
	if !ok {
		return
	}
	// Slots charged up front (the batch size must be admitted before the
	// dequeue), unfilled slots refunded on every exit path: an idle
	// long-poller's empty 204 must not bleed its tenant's bucket dry at
	// max tokens per poll while producers starve into 429s.
	n := 0
	if quota != nil {
		defer func() {
			if n < m {
				quota.RefundN(m - n)
			}
		}()
	}
	bufs, release := s.bufs(r)
	defer release()
	if cap(bufs.ids) < m {
		bufs.ids = make([]uint64, m)
	}
	ids := bufs.ids[:m]
	bufs.resp = bufs.resp[:0]
	emit := func(id, token uint64, payload []byte) {
		bufs.resp = appendDelivery(bufs.resp, id, token, payload)
	}
	// respBudget keeps the encoded response (count prefix + deliveries)
	// within what the client's capped response read will accept: the
	// topic stops granting leases — never leases what it cannot ship —
	// once the frame would outgrow it.
	const respBudget = maxBatchBody - binary.MaxVarintLen64
	// Long poll: park on the topic's wake channel instead of spinning
	// empty round trips, with a short re-check tick so Drain (and a
	// vanished client) never waits on a parked poller for long.
	deadline := time.Now().Add(wait)
	n = t.ConsumeBatch(time.Now(), ids, respBudget, emit)
	for n == 0 && wait > 0 && !s.draining.Load() && !t.closing.Load() {
		pause := time.Until(deadline)
		if pause <= 0 {
			break
		}
		if pause > pollRecheck {
			pause = pollRecheck
		}
		timer := time.NewTimer(pause)
		select {
		case <-t.wake:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
		timer.Stop()
		n = t.ConsumeBatch(time.Now(), ids, respBudget, emit)
	}
	s.consumeSlots.Add(int64(m))
	s.consumeFilled.Add(int64(n))
	if n == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.noteBatch(n)
	// The batch slow-reader window: every lease in the batch is
	// committed, the response unwritten. A consumer parked here holds k
	// leases past the shared deadline; the sweeper must redeliver all of
	// them exactly once and this consumer's acks must all conflict.
	inject.Fire(inject.SvcBatchLease)
	var cnt [binary.MaxVarintLen64]byte
	nc := binary.PutUvarint(cnt[:], uint64(n))
	w.Header().Set("Content-Type", batchContentType)
	w.Header().Set("Content-Length", strconv.Itoa(nc+len(bufs.resp)))
	w.Write(cnt[:nc])
	w.Write(bufs.resp)
}

func (s *Service) handleAckBatch(w http.ResponseWriter, r *http.Request, t *Topic) {
	bufs, release := s.bufs(r)
	defer release()
	body, err := readBody(r.Body, bufs.body, maxBatchBody)
	bufs.body = body
	if err != nil {
		status := http.StatusBadRequest
		if err == errBodyTooLarge {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "read body: "+err.Error(), status)
		return
	}
	entries, err := parseAckBatch(body, bufs.acks[:0])
	bufs.acks = entries
	if err != nil {
		http.Error(w, "ack-batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	_, m, ok := s.admitBatch(w, r, len(entries))
	if !ok {
		return
	}
	bufs.results = t.AckBatch(entries[:m], bufs.results[:0])
	s.noteBatch(m)
	bufs.resp = appendAckResults(bufs.resp[:0], bufs.results)
	writeFrame(w, bufs.resp)
}

// noteBatch feeds the batch-size observability counters (the
// service_batch_size / batch_fill_pct expvars in cmd/queued).
func (s *Service) noteBatch(msgs int) {
	s.batchBatches.Add(1)
	s.batchMsgs.Add(int64(msgs))
}
