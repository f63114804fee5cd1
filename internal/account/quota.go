// Per-tenant admission control for the network service layer.
//
// A queue service multiplexes many tenants onto one bounded backend, so
// admission is where fairness and overload protection live: a tenant
// that bursts past its budget is told to come back later (HTTP 429 +
// Retry-After upstream) instead of eating the shared helping/reclaim
// capacity, and a connection that pipelines unbounded requests is capped
// before it can exhaust registration slots.
//
// Quota is a classic token bucket held in a single atomic word: the
// bucket level is stored as "nanoseconds of accumulated debt", so Admit
// is one CAS on the hot path and the refill is implicit in the
// clock — no background filler goroutine, no per-tick wakeups. The
// in-flight gauge is a separate atomic; both are safe for concurrent
// use by request handlers.
package account

import (
	"sync"
	"sync/atomic"
	"time"
)

// Quota is one tenant's admission budget: a token bucket of rate
// requests/second with capacity burst, plus a cap on concurrently
// in-flight requests.
//
// The zero value admits nothing; use NewQuota.
type Quota struct {
	// interval is the token cost of one request in nanoseconds
	// (1e9/rate); burstNS is the bucket capacity in the same unit.
	interval int64
	burstNS  int64
	// level is the GCRA "theoretical arrival time" in unix nanos: the
	// earliest instant at which the next request would be conforming if
	// the tenant had no burst credit. A request admits while
	// level <= now + (burstNS - interval); admitting advances level by
	// interval from max(level, now).
	level atomic.Int64

	maxInFlight int64
	inFlight    atomic.Int64

	// Counters for the service's stats surface.
	Admitted atomic.Int64
	Shed     atomic.Int64
}

// NewQuota builds a bucket admitting rate requests/second with bursts up
// to burst, and at most maxInFlight concurrently admitted requests
// (0 = unlimited).
func NewQuota(rate float64, burst int, maxInFlight int) *Quota {
	if rate <= 0 {
		rate = 1
	}
	if burst < 1 {
		burst = 1
	}
	q := &Quota{
		interval:    int64(float64(time.Second) / rate),
		maxInFlight: int64(maxInFlight),
	}
	if q.interval < 1 {
		q.interval = 1
	}
	q.burstNS = q.interval * int64(burst)
	return q
}

// Admit consumes one token if available. On refusal it reports how long
// the caller should wait before retrying (the Retry-After seam). now is
// explicit so tests can drive the clock.
//
// The service charges every request through AdmitN; Admit is the
// one-token GCRA step kept as the reference that
// TestQuotaAdmitNMatchesSequential checks AdmitN against.
func (q *Quota) Admit(now time.Time) (ok bool, retryAfter time.Duration) {
	t := now.UnixNano()
	tolerance := q.burstNS - q.interval
	for {
		tat := q.level.Load()
		if tat > t+tolerance {
			q.Shed.Add(1)
			return false, time.Duration(tat - (t + tolerance))
		}
		next := tat
		if next < t {
			next = t // idle credit never exceeds one burst
		}
		if q.level.CompareAndSwap(tat, next+q.interval) {
			q.Admitted.Add(1)
			return true, 0
		}
	}
}

// AdmitN consumes up to n tokens at one CAS and reports how many were
// admitted. This is the batch form of Admit: a batch of k messages pays
// one level-word advance instead of k, and the GCRA arithmetic is
// exactly k sequential Admit calls collapsed — the m-th token of the
// batch conforms iff max(level, now) + (m-1)·interval still fits inside
// the burst tolerance, so a partially full bucket admits a partial
// batch rather than rejecting it whole. admitted == 0 (or < n) comes
// with the same Retry-After seam as Admit: the wait until the *next*
// token after the admitted prefix becomes conforming.
func (q *Quota) AdmitN(now time.Time, n int) (admitted int, retryAfter time.Duration) {
	if n <= 0 {
		return 0, 0
	}
	t := now.UnixNano()
	tolerance := q.burstNS - q.interval
	for {
		tat := q.level.Load()
		if tat > t+tolerance {
			q.Shed.Add(int64(n))
			return 0, time.Duration(tat - (t + tolerance))
		}
		base := tat
		if base < t {
			base = t // idle credit never exceeds one burst
		}
		m := int((t+tolerance-base)/q.interval) + 1
		if m > n {
			m = n
		}
		next := base + int64(m)*q.interval
		if q.level.CompareAndSwap(tat, next) {
			q.Admitted.Add(int64(m))
			if m < n {
				q.Shed.Add(int64(n - m))
				retryAfter = time.Duration(next - (t + tolerance))
				if retryAfter < 0 {
					retryAfter = 0
				}
			}
			return m, retryAfter
		}
	}
}

// RefundN returns n unused tokens to the bucket by retreating the GCRA
// level — the exact inverse of charging them, for callers that must
// reserve before they know how much they will use (consume-batch admits
// its slot count before the dequeue says how many messages exist).
// Over-retreat cannot mint extra credit: Admit/AdmitN clamp their base
// to now, so a level driven below the clock still admits at most one
// burst. Refund only tokens actually admitted by a prior Admit/AdmitN.
func (q *Quota) RefundN(n int) {
	if n <= 0 {
		return
	}
	q.level.Add(-int64(n) * q.interval)
	q.Admitted.Add(-int64(n))
}

// Enter tries to occupy an in-flight slot; callers must Exit on success.
func (q *Quota) Enter() bool {
	if q.maxInFlight <= 0 {
		q.inFlight.Add(1)
		return true
	}
	for {
		n := q.inFlight.Load()
		if n >= q.maxInFlight {
			q.Shed.Add(1)
			return false
		}
		if q.inFlight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Exit releases an in-flight slot taken by Enter.
func (q *Quota) Exit() { q.inFlight.Add(-1) }

// InFlight reports the current gauge.
func (q *Quota) InFlight() int { return int(q.inFlight.Load()) }

// DefaultMaxTenants bounds the tenant registry when Tenants.MaxTenants
// is zero. Tenant names are client-controlled, so an unbounded registry
// would let any client grow the quota map — and everything that
// enumerates it — without limit.
const DefaultMaxTenants = 1024

// Tenants is a registry of per-tenant Quotas sharing one configuration,
// created on first use. Safe for concurrent use.
type Tenants struct {
	Rate        float64
	Burst       int
	MaxInFlight int
	// MaxTenants caps how many distinct tenants the registry tracks
	// (0 = DefaultMaxTenants, negative = unbounded). At the cap, Get
	// refuses unseen tenants instead of retaining them.
	MaxTenants int

	mu sync.Mutex
	m  map[string]*Quota
}

// Get returns the tenant's quota, creating it on first sight. ok=false
// means the registry is at its MaxTenants cap and the tenant is unseen;
// the caller should refuse the request rather than admit it unmetered.
func (t *Tenants) Get(tenant string) (q *Quota, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[string]*Quota)
	}
	if q, ok := t.m[tenant]; ok {
		return q, true
	}
	max := t.MaxTenants
	if max == 0 {
		max = DefaultMaxTenants
	}
	if max > 0 && len(t.m) >= max {
		return nil, false
	}
	q = NewQuota(t.Rate, t.Burst, t.MaxInFlight)
	t.m[tenant] = q
	return q, true
}

// Each calls fn for every known tenant (stats export).
func (t *Tenants) Each(fn func(name string, q *Quota)) {
	t.mu.Lock()
	names := make([]string, 0, len(t.m))
	qs := make([]*Quota, 0, len(t.m))
	for n, q := range t.m {
		names = append(names, n)
		qs = append(qs, q)
	}
	t.mu.Unlock()
	for i := range names {
		fn(names[i], qs[i])
	}
}
