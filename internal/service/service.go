// Package service is the queue-as-a-service layer: an HTTP front
// (stdlib only) over the repository's wait-free sharded queues, turning
// the paper's in-process guarantees into service-level ones.
//
// The mapping from paper property to service property is the point of
// the package:
//
//   - wait-free operations → no consumer can block a producer: every
//     HTTP handler runs its queue operation through an AutoQueue over
//     the sharded front, so a stalled connection parks a goroutine, not
//     a queue;
//   - bounded reclamation (§3) → a measurable overload signal: the
//     per-topic circuit breaker samples ReclaimPressure and sheds
//     produce load before the retired-node backlog can reach the
//     hazard/eras structural bound (see breaker.go);
//   - helping/claim consensus → exactly-once redelivery: a delivery
//     lease is a claim on one message, and the redelivery sweeper's
//     claim (CAS leased→reclaiming) settles the ack-vs-expiry race by
//     the same single-CAS-decides discipline the queues use for cell
//     ownership (see topic.go).
//
// Admission is layered, cheapest check first: tenant-name validation,
// draining flag, per-connection in-flight cap, then — once the request
// says how many messages it carries — breaker (produce only) and the
// per-tenant token-bucket quota (429 + Retry-After, bounded tenant
// registry). Graceful shutdown (Drain) stops
// admitting, serves what is in flight, parks the sweepers, drains the
// backends, and ends with VerifyQuiescent on every topic — the same
// post-shutdown accounting gate every other harness in the repository
// must pass.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"turnqueue"
	"turnqueue/internal/account"
	"turnqueue/internal/inject"
)

// Config sizes one Service. Zero fields take the documented defaults.
type Config struct {
	// Topics names the queues to create; at least one is required.
	Topics []string
	// MaxThreads bounds each topic's registered-thread slots (default
	// GOMAXPROCS via the queue constructor's own default).
	MaxThreads int
	// Shards and ShardQueue configure each topic's sharded front
	// (defaults: the constructor's shard heuristic over "TurnPlus").
	Shards     int
	ShardQueue string
	// Reclaimer selects the reclamation backend (default hazard). The
	// breaker only functions on bounded backends (hazard, eras).
	Reclaimer turnqueue.Reclaimer
	// SegmentSize overrides the ring-segment cell count (default the
	// constructor's 1024). Smaller segments retire faster, which is how
	// the chaos suite makes reclaim pressure observable at small scale.
	SegmentSize int

	// Lease is how long a consumer holds a delivery before the sweeper
	// may redeliver it (default 30s; chaos tests use milliseconds).
	Lease time.Duration
	// SweepEvery is the redelivery sweeper period (default Lease/4,
	// floor 10ms).
	SweepEvery time.Duration

	// QuotaRate/QuotaBurst configure each tenant's token bucket
	// (default 5000 req/s, burst 500). QuotaRate < 0 disables quotas.
	QuotaRate  float64
	QuotaBurst int
	// MaxTenants caps how many distinct tenants the quota registry will
	// track (default account.DefaultMaxTenants, negative = unbounded);
	// at the cap, requests from unseen tenants are refused with 429.
	MaxTenants int
	// MaxInFlightPerConn caps concurrently admitted requests per client
	// connection (default 64; 0 keeps the default, -1 disables).
	MaxInFlightPerConn int

	// BreakerOpenPct/ClosePct/Every tune the per-topic pressure valve
	// (defaults 90 / 45 / 1ms). BreakerOpenPct < 0 disables the breaker.
	BreakerOpenPct  int
	BreakerClosePct int
	BreakerEvery    time.Duration
}

func (c *Config) fill() error {
	if len(c.Topics) == 0 {
		return errors.New("service: Config.Topics is empty")
	}
	if c.Lease <= 0 {
		c.Lease = 30 * time.Second
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.Lease / 4
		if c.SweepEvery < 10*time.Millisecond {
			c.SweepEvery = 10 * time.Millisecond
		}
	}
	if c.QuotaRate == 0 {
		c.QuotaRate = 5000
	}
	if c.QuotaBurst <= 0 {
		c.QuotaBurst = 500
	}
	if c.MaxInFlightPerConn == 0 {
		c.MaxInFlightPerConn = 64
	}
	if c.BreakerOpenPct == 0 {
		c.BreakerOpenPct = 90
	}
	if c.BreakerClosePct == 0 {
		c.BreakerClosePct = 45
	}
	if c.BreakerEvery <= 0 {
		c.BreakerEvery = time.Millisecond
	}
	return nil
}

// Service hosts the topics and the HTTP surface.
type Service struct {
	cfg     Config
	topics  map[string]*Topic
	tenants *account.Tenants

	// admitMu makes the draining check and the reqWG.Add in admit() one
	// atomic step against Drain's draining.Swap: without it a
	// request could pass the check, lose the CPU, and call Add after
	// Drain's reqWG.Wait already returned (documented WaitGroup misuse)
	// — running its queue operation concurrently with the drain loop.
	admitMu  sync.RWMutex
	draining atomic.Bool
	reqWG    sync.WaitGroup // in-flight admitted requests

	sweepStop chan struct{}
	sweepWG   sync.WaitGroup

	shedDraining atomic.Int64
	shedQuota    atomic.Int64
	shedConn     atomic.Int64
	shedBreaker  atomic.Int64
	shedTenant   atomic.Int64 // invalid tenant names + registry-cap refusals

	// Batch observability: batches/messages admitted (a single-op request
	// is a batch of 1), and consume slot fill (requested vs delivered).
	batchBatches  atomic.Int64
	batchMsgs     atomic.Int64
	consumeSlots  atomic.Int64
	consumeFilled atomic.Int64
}

// New builds the topics (one sharded wait-free backend each) and starts
// their redelivery sweepers. Call Drain to shut down.
func New(cfg Config) (*Service, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:       cfg,
		topics:    make(map[string]*Topic, len(cfg.Topics)),
		sweepStop: make(chan struct{}),
	}
	if cfg.QuotaRate > 0 {
		s.tenants = &account.Tenants{Rate: cfg.QuotaRate, Burst: cfg.QuotaBurst,
			MaxTenants: cfg.MaxTenants}
	}
	var opts []turnqueue.Option
	if cfg.MaxThreads > 0 {
		opts = append(opts, turnqueue.WithMaxThreads(cfg.MaxThreads))
	}
	if cfg.Shards > 0 {
		opts = append(opts, turnqueue.WithShards(cfg.Shards))
	}
	if cfg.ShardQueue != "" {
		opts = append(opts, turnqueue.WithShardQueue(cfg.ShardQueue))
	}
	if cfg.Reclaimer != "" {
		opts = append(opts, turnqueue.WithReclaimer(cfg.Reclaimer))
	}
	if cfg.SegmentSize > 0 {
		opts = append(opts, turnqueue.WithSegmentSize(cfg.SegmentSize))
	}
	for _, name := range cfg.Topics {
		if name == "" {
			return nil, errors.New("service: empty topic name")
		}
		if _, dup := s.topics[name]; dup {
			return nil, fmt.Errorf("service: duplicate topic %q", name)
		}
		a := turnqueue.NewAuto(turnqueue.NewSharded[uint64](opts...))
		var br *breaker
		if cfg.BreakerOpenPct > 0 {
			br = newBreaker(a.ReclaimPressure, cfg.BreakerOpenPct, cfg.BreakerClosePct, cfg.BreakerEvery)
		}
		t := newTopic(name, a, cfg.Lease, br)
		s.topics[name] = t
		s.sweepWG.Add(1)
		go s.runSweeper(t)
	}
	return s, nil
}

func (s *Service) runSweeper(t *Topic) {
	defer s.sweepWG.Done()
	tick := time.NewTicker(s.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case now := <-tick.C:
			t.sweep(now)
		}
	}
}

// Topic returns the named topic (nil if unknown) — the test seam.
func (s *Service) Topic(name string) *Topic { return s.topics[name] }

// connState is the per-connection in-flight gauge installed by
// ConnContext. HTTP/2 (and a pipelining HTTP/1.1 client) can multiplex
// many requests onto one connection; the cap keeps a single connection
// from monopolizing the thread-slot pool behind the queues.
type connState struct {
	inFlight atomic.Int64
	max      int64
	// bufs pools this connection's batch request/response buffers (a
	// sync.Pool, not a single set, because HTTP/2 multiplexes concurrent
	// requests onto one connection).
	bufs sync.Pool
}

func (cs *connState) enter() bool {
	if cs.max <= 0 {
		return true
	}
	for {
		n := cs.inFlight.Load()
		if n >= cs.max {
			return false
		}
		if cs.inFlight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (cs *connState) exit() {
	if cs.max > 0 {
		cs.inFlight.Add(-1)
	}
}

type connKey struct{}

// ConnContext plugs into http.Server.ConnContext to give every client
// connection its own in-flight cap.
func (s *Service) ConnContext(ctx context.Context, _ net.Conn) context.Context {
	max := int64(s.cfg.MaxInFlightPerConn)
	if max < 0 {
		max = 0 // disabled
	}
	cs := &connState{max: max}
	cs.bufs.New = newBufSet
	return context.WithValue(ctx, connKey{}, cs)
}

// Handler returns the service's HTTP surface:
//
//	POST /topics/{topic}/produce   body = payload        → {"id": n}
//	POST /topics/{topic}/consume                         → {"id","token","payload"} | 204
//	POST /topics/{topic}/ack?id=&token=                  → 200 | 409 | 404
//	POST /topics/{topic}/produce-batch                   frame → frame of ids (batch.go)
//	POST /topics/{topic}/consume-batch?max=&wait=        → frame of deliveries | 204
//	POST /topics/{topic}/ack-batch                       frame → frame of results
//	GET  /stats                                          → per-topic + tenant counters
//	GET  /healthz                                        → 200 | 503 while draining
//
// The single-op JSON endpoints are the k=1 case of the batch path: each
// pair of handlers decodes and encodes its own wire format around one
// shared produce, consume or ack (batch.go).
//
// The tenant is the X-Tenant header (default "default"); names longer
// than 64 bytes or outside [A-Za-z0-9._-] are refused with 400.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /topics/{topic}/produce", s.admit(s.handleProduce))
	mux.HandleFunc("POST /topics/{topic}/consume", s.admit(s.handleConsume))
	mux.HandleFunc("POST /topics/{topic}/ack", s.admit(s.handleAck))
	mux.HandleFunc("POST /topics/{topic}/produce-batch", s.admit(s.handleProduceBatch))
	mux.HandleFunc("POST /topics/{topic}/consume-batch", s.admit(s.handleConsumeBatch))
	mux.HandleFunc("POST /topics/{topic}/ack-batch", s.admit(s.handleAckBatch))
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// admit wraps a topic handler with the per-request admission steps,
// cheapest rejection first: tenant-name validation, the draining gate
// (requests past it are tracked on reqWG so Drain can wait them out),
// and the per-connection cap. It hands the handler a pooled buffer set.
// The breaker sample and the quota charge happen in the shared paths
// (batch.go): the message count is only known once the body or query is
// parsed, and AdmitN needs it.
func (s *Service) admit(h func(http.ResponseWriter, *http.Request, *Topic, *bufSet)) http.HandlerFunc {
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
		// Register on reqWG under the same lock that Drain uses to flip
		// the flag (see admitMu): past this point Drain waits for us.
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
		pool := &bufsFallback
		if cs, _ := r.Context().Value(connKey{}).(*connState); cs != nil {
			if !cs.enter() {
				s.shedConn.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, "connection in-flight cap", http.StatusTooManyRequests)
				return
			}
			defer cs.exit()
			pool = &cs.bufs
		}
		b := pool.Get().(*bufSet)
		defer pool.Put(b)
		h(w, r, t, b)
	}
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

const maxTenantName = 64

// validTenant bounds what the client-controlled X-Tenant header can put
// in the tenant registry and the stats output: at most maxTenantName
// bytes of [A-Za-z0-9._-]. Anything else is refused at the door.
func validTenant(name string) bool {
	if len(name) == 0 || len(name) > maxTenantName {
		return false
	}
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// retryAfterSeconds renders a Retry-After header value, rounding up so
// a compliant client never retries before the token exists.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

const maxPayload = 1 << 20

func (s *Service) handleProduce(w http.ResponseWriter, r *http.Request, t *Topic, bufs *bufSet) {
	ids, ok := s.produce(w, r, t, bufs, maxPayload, func(body []byte, into [][]byte) ([][]byte, error) {
		return append(into, body), nil
	})
	if !ok {
		return
	}
	// The admitted-but-unwritten window: a connection parked here holds
	// no queue handle and no lease — only its own goroutine.
	inject.Fire(inject.SvcConnStall)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]uint64{"id": ids[0]})
}

func (s *Service) handleConsume(w http.ResponseWriter, r *http.Request, t *Topic, bufs *bufSet) {
	var d Delivery
	if s.consume(w, r, t, bufs, 1, 0, func(id, token uint64, payload []byte) {
		d = Delivery{ID: id, Token: token, Payload: append([]byte(nil), payload...)}
	}) == 0 {
		return
	}
	body, _ := json.Marshal(d)
	w.Header().Set("Content-Type", "application/json")
	// The slow-reader window: the lease is committed, the response not
	// yet written. A goroutine parked here holds its delivery lease past
	// the deadline — the sweeper must redeliver to a healthy consumer
	// and this consumer's eventual ack must come back 409.
	inject.Fire(inject.SvcSlowReader)
	w.Write(body)
}

func (s *Service) handleAck(w http.ResponseWriter, r *http.Request, t *Topic, bufs *bufSet) {
	id, err1 := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
	token, err2 := strconv.ParseUint(r.URL.Query().Get("token"), 10, 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "ack needs numeric id and token", http.StatusBadRequest)
		return
	}
	results, ok := s.ack(w, r, t, bufs, append(bufs.acks[:0], AckEntry{ID: id, Token: token}))
	if !ok {
		return
	}
	switch results[0] {
	case AckOK:
		w.WriteHeader(http.StatusOK)
	case AckConflict:
		http.Error(w, "lease expired or token stale", http.StatusConflict)
	case AckUnknown:
		http.Error(w, "unknown delivery", http.StatusNotFound)
	}
}

// Stats is the service-wide counter view (the /stats body).
type Stats struct {
	Draining     bool                  `json:"draining"`
	Topics       map[string]TopicStats `json:"topics"`
	Tenants      map[string]TenantRow  `json:"tenants,omitempty"`
	ShedDraining int64                 `json:"shed_draining"`
	ShedQuota    int64                 `json:"shed_quota"`
	ShedConn     int64                 `json:"shed_conn"`
	ShedBreaker  int64                 `json:"shed_breaker"`
	ShedTenant   int64                 `json:"shed_tenant"`

	// Batch counters, single-op requests counted as batches of 1:
	// BatchMsgs/BatchBatches is the average admitted batch size;
	// ConsumeFilled/ConsumeSlots the consume fill ratio (delivered vs
	// requested slots).
	BatchBatches  int64 `json:"batch_batches"`
	BatchMsgs     int64 `json:"batch_msgs"`
	ConsumeSlots  int64 `json:"batch_consume_slots"`
	ConsumeFilled int64 `json:"batch_consume_filled"`
}

// TenantRow is one tenant's admission counters.
type TenantRow struct {
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	InFlight int   `json:"in_flight"`
}

// Stats assembles the live counter view.
func (s *Service) Stats() Stats {
	st := Stats{
		Draining:     s.draining.Load(),
		Topics:       make(map[string]TopicStats, len(s.topics)),
		ShedDraining: s.shedDraining.Load(),
		ShedQuota:    s.shedQuota.Load(),
		ShedConn:     s.shedConn.Load(),
		ShedBreaker:  s.shedBreaker.Load(),
		ShedTenant:   s.shedTenant.Load(),

		BatchBatches:  s.batchBatches.Load(),
		BatchMsgs:     s.batchMsgs.Load(),
		ConsumeSlots:  s.consumeSlots.Load(),
		ConsumeFilled: s.consumeFilled.Load(),
	}
	for name, t := range s.topics {
		st.Topics[name] = t.Stats()
	}
	if s.tenants != nil {
		st.Tenants = map[string]TenantRow{}
		s.tenants.Each(func(name string, q *account.Quota) {
			st.Tenants[name] = TenantRow{
				Admitted: q.Admitted.Load(),
				Shed:     q.Shed.Load(),
				InFlight: q.InFlight(),
			}
		})
	}
	return st
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// DrainReport is Drain's summary: per topic, what was still queued
// (Undelivered) and what had been delivered but never acked (Unacked)
// when the service shut down — outstanding work is reported, never
// silently dropped on the floor.
type DrainReport struct {
	Undelivered map[string]int `json:"undelivered"`
	// Unacked counts records still leased (or caught mid-reclaim) at
	// shutdown: the closing sweeper leaves expired leases in place, so
	// these are deliveries a consumer may still believe it owns.
	Unacked map[string]int `json:"unacked"`
}

// Drain performs the graceful shutdown: stop admitting (everything new
// gets 503), park the sweepers, wait out in-flight requests, drain each
// backend queue of undelivered ids, close it (the AutoQueue close path
// releases every cached handle and force-drains reclamation), and
// verify quiescence. The first verification failure aborts with its
// error — a failed drain is a real leak, not a shutdown cosmetic.
func (s *Service) Drain(ctx context.Context) (DrainReport, error) {
	rep := DrainReport{
		Undelivered: make(map[string]int, len(s.topics)),
		Unacked:     make(map[string]int, len(s.topics)),
	}
	// The write lock pairs with admit()'s read-locked check+Add: once
	// Swap returns, every request that will ever touch reqWG is already
	// registered, so the Wait below cannot race an Add.
	s.admitMu.Lock()
	already := s.draining.Swap(true)
	s.admitMu.Unlock()
	if already {
		return rep, errors.New("service: already drained")
	}
	for _, t := range s.topics {
		t.closing.Store(true)
	}
	close(s.sweepStop)
	s.sweepWG.Wait()

	done := make(chan struct{})
	go func() { s.reqWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return rep, fmt.Errorf("service: drain: in-flight requests did not finish: %w", ctx.Err())
	}

	for name, t := range s.topics {
		n := 0
		for {
			if _, ok := t.q.Dequeue(); !ok {
				break
			}
			n++
		}
		rep.Undelivered[name] = n
		rep.Unacked[name] = t.unackedCount()
		t.q.Close()
		snap := t.q.Snapshot()
		if err := snap.VerifyQuiescent(); err != nil {
			return rep, fmt.Errorf("service: topic %q not quiescent after drain: %w", name, err)
		}
	}
	return rep, nil
}
