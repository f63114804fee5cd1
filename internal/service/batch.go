package service

// The one path behind all six topic endpoints. produce, consume and ack
// below carry the admission charge, the topic operation and the batch
// counters; each endpoint pair only decodes its request and encodes its
// response around them. The frame endpoints amortize the HTTP and
// admission toll over k messages:
//
//	POST /topics/{topic}/produce-batch              frame in → frame of ids
//	POST /topics/{topic}/consume-batch?max=&wait=   → frame of deliveries | 204
//	POST /topics/{topic}/ack-batch                  frame in → frame of results
//
// and the single-op JSON endpoints (service.go) are the k=1 case of the
// same calls: produce with one payload, consume with max=1 and no wait,
// ack with one entry.
//
// One breaker sample, one GCRA quota advance (AdmitN: k tokens at one
// CAS), one connection-cap check, and one reqWG registration admit the
// whole batch; the topic layer then pays one slab of delivery records
// and one backend batch op (EnqueueBatch/DequeueBatch) for the k
// messages, and resolves each id to its record without a lock. Batch
// bodies are length-prefixed frames (frame.go), decoded out of and
// encoded into per-connection pooled buffers, so a steady batched
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

var errBodyTooLarge = errors.New("body too large")

// bufSet is one request's worth of reusable buffers. Sets are pooled
// per connection (connState.bufs, via ConnContext) so a busy connection
// reuses its own right-sized buffers; handlers reached without a
// ConnContext (direct Handler() use in tests) fall back to a package
// pool. admit hands one to every topic handler.
type bufSet struct {
	body     []byte
	resp     []byte
	payloads [][]byte
	ids      []uint64
	acks     []AckEntry
	results  []AckResult
}

var bufsFallback = sync.Pool{New: newBufSet}

func newBufSet() any { return new(bufSet) }

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

// readRequest reads the request body into the pooled body buffer, up to
// max bytes (413 past it). ok=false means the error answer is written.
func readRequest(w http.ResponseWriter, r *http.Request, bufs *bufSet, max int) (body []byte, ok bool) {
	body, err := readBody(r.Body, bufs.body, max)
	bufs.body = body
	if err != nil {
		status := http.StatusBadRequest
		if err == errBodyTooLarge {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "read body: "+err.Error(), status)
		return nil, false
	}
	return body, true
}

// produce is the produce path: breaker sample, body read (at most
// maxBody bytes), decode into payload views of the body, one quota
// charge for the batch, and the topic enqueue of the admitted prefix.
// It returns the admitted messages' ids; ok=false means the error
// answer is written.
func (s *Service) produce(w http.ResponseWriter, r *http.Request, t *Topic, bufs *bufSet, maxBody int,
	decode func(body []byte, into [][]byte) ([][]byte, error)) (ids []uint64, ok bool) {
	if t.br != nil && !t.br.allow(time.Now()) {
		s.shedBreaker.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded: reclamation backlog near bound", http.StatusServiceUnavailable)
		return nil, false
	}
	body, ok := readRequest(w, r, bufs, maxBody)
	if !ok {
		return nil, false
	}
	payloads, err := decode(body, bufs.payloads[:0])
	bufs.payloads = payloads
	if err != nil {
		http.Error(w, "produce: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	_, m, ok := s.admitBatch(w, r, len(payloads))
	if !ok {
		return nil, false
	}
	bufs.ids = t.ProduceBatch(tenantOf(r), payloads[:m], bufs.ids[:0])
	s.noteBatch(m)
	return bufs.ids, true
}

// consume is the consume path: a quota charge for max slots (unfilled
// slots refunded on every exit), the topic's batch lease, and — when
// wait > 0 — the long poll. emit receives each granted delivery (see
// Topic.ConsumeBatch). It returns the number of leases granted; on 0
// the answer (204, 500 for a simulated consumer crash, or a refusal) is
// already written.
func (s *Service) consume(w http.ResponseWriter, r *http.Request, t *Topic, bufs *bufSet, max int, wait time.Duration,
	emit func(id, token uint64, payload []byte)) (n int) {
	quota, m, ok := s.admitBatch(w, r, max)
	if !ok {
		return 0
	}
	// Slots charged up front (the batch size must be admitted before the
	// dequeue), unfilled slots refunded on every exit path: an idle
	// long-poller's empty 204 must not bleed its tenant's bucket dry at
	// max tokens per poll while producers starve into 429s.
	if quota != nil {
		defer func() {
			if n < m {
				quota.RefundN(m - n)
			}
		}()
	}
	if cap(bufs.ids) < m {
		bufs.ids = make([]uint64, m)
	}
	ids := bufs.ids[:m]
	// respBudget keeps the encoded response (count prefix + deliveries)
	// within what the client's capped response read will accept: the
	// topic stops granting leases — never leases what it cannot ship —
	// once the frame would outgrow it.
	const respBudget = maxBatchBody - binary.MaxVarintLen64
	// Long poll: park on the topic's wake channel instead of spinning
	// empty round trips, with a short re-check tick so Drain (and a
	// vanished client) never waits on a parked poller for long.
	now := time.Now()
	deadline := now.Add(wait)
	n, err := t.consume(now, ids, respBudget, emit)
	for err == nil && n == 0 && wait > 0 && !s.draining.Load() && !t.closing.Load() {
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
			return 0
		}
		timer.Stop()
		n, err = t.consume(time.Now(), ids, respBudget, emit)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return 0
	}
	s.consumeSlots.Add(int64(m))
	s.consumeFilled.Add(int64(n))
	if n == 0 {
		w.WriteHeader(http.StatusNoContent)
		return 0
	}
	s.noteBatch(n)
	return n
}

// ack is the ack path: one quota charge for the entries and the topic's
// per-entry CAS for the admitted prefix. ok=false means the refusal is
// written.
func (s *Service) ack(w http.ResponseWriter, r *http.Request, t *Topic, bufs *bufSet, entries []AckEntry) (results []AckResult, ok bool) {
	_, m, ok := s.admitBatch(w, r, len(entries))
	if !ok {
		return nil, false
	}
	bufs.results = t.AckBatch(entries[:m], bufs.results[:0])
	s.noteBatch(m)
	return bufs.results, true
}

func (s *Service) handleProduceBatch(w http.ResponseWriter, r *http.Request, t *Topic, bufs *bufSet) {
	ids, ok := s.produce(w, r, t, bufs, maxBatchBody, func(body []byte, into [][]byte) ([][]byte, error) {
		return parseProduceBatch(body, maxPayload, into)
	})
	if !ok {
		return
	}
	bufs.resp = appendIDs(bufs.resp[:0], ids)
	writeFrame(w, bufs.resp)
}

func (s *Service) handleConsumeBatch(w http.ResponseWriter, r *http.Request, t *Topic, bufs *bufSet) {
	q := r.URL.Query()
	max := 32
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "consume-batch: max must be a positive integer", http.StatusBadRequest)
			return
		}
		max = min(n, maxBatchMsgs)
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			http.Error(w, "consume-batch: wait must be a non-negative duration", http.StatusBadRequest)
			return
		}
		wait = min(d, maxBatchWait)
	}
	bufs.resp = bufs.resp[:0]
	n := s.consume(w, r, t, bufs, max, wait, func(id, token uint64, payload []byte) {
		bufs.resp = appendDelivery(bufs.resp, id, token, payload)
	})
	if n == 0 {
		return
	}
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

func (s *Service) handleAckBatch(w http.ResponseWriter, r *http.Request, t *Topic, bufs *bufSet) {
	body, ok := readRequest(w, r, bufs, maxBatchBody)
	if !ok {
		return
	}
	entries, err := parseAckBatch(body, bufs.acks[:0])
	bufs.acks = entries
	if err != nil {
		http.Error(w, "ack-batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	results, ok := s.ack(w, r, t, bufs, entries)
	if !ok {
		return
	}
	bufs.resp = appendAckResults(bufs.resp[:0], results)
	writeFrame(w, bufs.resp)
}

// noteBatch feeds the batch-size observability counters (the
// service_batch_size / batch_fill_pct expvars in cmd/queued); a
// single-op request counts as a batch of 1.
func (s *Service) noteBatch(msgs int) {
	s.batchBatches.Add(1)
	s.batchMsgs.Add(int64(msgs))
}
