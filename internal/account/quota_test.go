package account

import (
	"sync"
	"testing"
	"time"
)

func TestQuotaAdmitsBurstThenSheds(t *testing.T) {
	q := NewQuota(10, 5, 0) // 10 req/s → 100ms/token, burst 5
	base := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		ok, _ := q.Admit(base)
		if !ok {
			t.Fatalf("admit %d refused inside burst", i)
		}
	}
	ok, retry := q.Admit(base)
	if ok {
		t.Fatalf("6th immediate request admitted past burst")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 100ms]", retry)
	}
	// After retryAfter elapses, exactly one token is back.
	later := base.Add(retry)
	if ok, _ := q.Admit(later); !ok {
		t.Fatalf("request refused after waiting the advertised retryAfter")
	}
	if ok, _ := q.Admit(later); ok {
		t.Fatalf("second request at the same instant admitted: only one token refilled")
	}
}

func TestQuotaIdleCreditCapped(t *testing.T) {
	q := NewQuota(10, 5, 0)
	base := time.Unix(1000, 0)
	if ok, _ := q.Admit(base); !ok {
		t.Fatal("first admit refused")
	}
	// An hour idle banks at most one burst, not 36000 tokens.
	later := base.Add(time.Hour)
	admitted := 0
	for i := 0; i < 100; i++ {
		if ok, _ := q.Admit(later); ok {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("idle tenant admitted %d at once, want burst=5", admitted)
	}
}

func TestQuotaSteadyRate(t *testing.T) {
	q := NewQuota(100, 1, 0) // 10ms/token, no burst slack
	base := time.Unix(1000, 0)
	admitted := 0
	for i := 0; i < 1000; i++ { // 1ms ticks over 1s
		if ok, _ := q.Admit(base.Add(time.Duration(i) * time.Millisecond)); ok {
			admitted++
		}
	}
	if admitted < 99 || admitted > 101 {
		t.Fatalf("steady 1kHz offered load admitted %d/s, want ~100", admitted)
	}
}

func TestQuotaInFlightCap(t *testing.T) {
	q := NewQuota(1e9, 1<<20, 3)
	for i := 0; i < 3; i++ {
		if !q.Enter() {
			t.Fatalf("Enter %d refused under cap", i)
		}
	}
	if q.Enter() {
		t.Fatal("4th Enter admitted past maxInFlight=3")
	}
	q.Exit()
	if !q.Enter() {
		t.Fatal("Enter refused after Exit freed a slot")
	}
	if got := q.InFlight(); got != 3 {
		t.Fatalf("InFlight = %d, want 3", got)
	}
}

func TestQuotaConcurrentAdmitNeverOversells(t *testing.T) {
	// Each charge asks for n tokens per call and reports how many it got.
	// Admit is the reference; every service request pays through AdmitN,
	// once per message batch (n=1 on the single-op endpoints).
	admit := func(q *Quota, now time.Time, _ int) int {
		if ok, _ := q.Admit(now); ok {
			return 1
		}
		return 0
	}
	admitN := func(q *Quota, now time.Time, n int) int {
		m, _ := q.AdmitN(now, n)
		return m
	}
	charges := []struct {
		name   string
		n      int
		charge func(q *Quota, now time.Time, n int) int
	}{
		{"Admit", 1, admit},
		{"AdmitN1", 1, admitN},
		{"AdmitN3", 3, admitN},
	}
	for _, c := range charges {
		t.Run(c.name, func(t *testing.T) {
			const burst, goroutines, calls = 64, 16, 100
			q := NewQuota(1, burst, 0) // 1 req/s: within one instant only the burst admits
			now := time.Unix(1000, 0)
			var wg sync.WaitGroup
			counts := make([]int, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						counts[g] += c.charge(q, now, c.n)
					}
				}(g)
			}
			wg.Wait()
			total := 0
			for _, n := range counts {
				total += n
			}
			if total != burst {
				t.Fatalf("concurrent admits = %d, want exactly burst=%d", total, burst)
			}
			if got := q.Admitted.Load(); got != burst {
				t.Fatalf("Admitted counter = %d, want %d", got, burst)
			}
			requested := int64(goroutines * calls * c.n)
			if got := q.Admitted.Load() + q.Shed.Load(); got != requested {
				t.Fatalf("Admitted+Shed = %d, want the %d tokens requested", got, requested)
			}
		})
	}
}

func TestTenantsIsolation(t *testing.T) {
	ts := &Tenants{Rate: 10, Burst: 1, MaxInFlight: 0}
	base := time.Unix(1000, 0)
	get := func(name string) *Quota {
		q, ok := ts.Get(name)
		if !ok {
			t.Fatalf("Get(%q) refused below the cap", name)
		}
		return q
	}
	if ok, _ := get("a").Admit(base); !ok {
		t.Fatal("tenant a first admit refused")
	}
	if ok, _ := get("a").Admit(base); ok {
		t.Fatal("tenant a second immediate admit allowed past burst=1")
	}
	// Tenant b has its own bucket.
	if ok, _ := get("b").Admit(base); !ok {
		t.Fatal("tenant b refused because of tenant a's spend")
	}
	if get("a") != get("a") {
		t.Fatal("Get not stable per tenant")
	}
	seen := map[string]bool{}
	ts.Each(func(name string, q *Quota) { seen[name] = true })
	if !seen["a"] || !seen["b"] {
		t.Fatalf("Each missed tenants: %v", seen)
	}
}

func TestTenantsCap(t *testing.T) {
	ts := &Tenants{Rate: 10, Burst: 1, MaxTenants: 2}
	if _, ok := ts.Get("a"); !ok {
		t.Fatal("tenant a refused below the cap")
	}
	if _, ok := ts.Get("b"); !ok {
		t.Fatal("tenant b refused below the cap")
	}
	if _, ok := ts.Get("c"); ok {
		t.Fatal("tenant c admitted past MaxTenants=2")
	}
	// Known tenants keep working at the cap.
	if q, ok := ts.Get("a"); !ok || q == nil {
		t.Fatal("known tenant a refused at the cap")
	}
	n := 0
	ts.Each(func(string, *Quota) { n++ })
	if n != 2 {
		t.Fatalf("registry holds %d tenants, want 2", n)
	}
}

// TestQuotaAdmitNMatchesSequential: AdmitN(k) must be exactly k
// sequential Admit calls collapsed into one CAS — same admitted counts,
// same bucket level afterwards, at every clock step.
func TestQuotaAdmitNMatchesSequential(t *testing.T) {
	one := NewQuota(10, 5, 0)
	batch := NewQuota(10, 5, 0)
	base := time.Unix(1000, 0)
	for step := 0; step < 50; step++ {
		now := base.Add(time.Duration(step*37) * time.Millisecond)
		k := step%7 + 1
		want := 0
		for i := 0; i < k; i++ {
			if ok, _ := one.Admit(now); ok {
				want++
			}
		}
		got, _ := batch.AdmitN(now, k)
		if got != want {
			t.Fatalf("step %d: AdmitN(%d) = %d, sequential Admit = %d", step, k, got, want)
		}
		if bl, ol := batch.level.Load(), one.level.Load(); bl != ol {
			t.Fatalf("step %d: bucket level diverged: batch %d, sequential %d", step, bl, ol)
		}
	}
}

// TestQuotaAdmitNPartial: a bucket holding fewer tokens than the batch
// admits the prefix and prices the refusal, instead of rejecting whole.
func TestQuotaAdmitNPartial(t *testing.T) {
	q := NewQuota(10, 5, 0) // 100ms/token, burst 5
	base := time.Unix(1000, 0)
	m, retry := q.AdmitN(base, 8)
	if m != 5 {
		t.Fatalf("AdmitN(8) on a full burst-5 bucket admitted %d, want 5", m)
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("partial retryAfter = %v, want (0, 100ms]", retry)
	}
	// The advertised wait buys exactly the next token, not the suffix.
	if m, _ := q.AdmitN(base.Add(retry), 3); m != 1 {
		t.Fatalf("AdmitN(3) after retryAfter admitted %d, want 1", m)
	}
	if a, s := q.Admitted.Load(), q.Shed.Load(); a != 6 || s != 5 {
		t.Fatalf("counters admitted=%d shed=%d, want 6/5", a, s)
	}
}

// TestQuotaAdmitNEmptyBucket: zero admission must report the same
// Retry-After seam as Admit and shed the whole batch.
func TestQuotaAdmitNEmptyBucket(t *testing.T) {
	q := NewQuota(10, 1, 0)
	base := time.Unix(1000, 0)
	if m, _ := q.AdmitN(base, 1); m != 1 {
		t.Fatal("first token refused")
	}
	m, retry := q.AdmitN(base, 4)
	if m != 0 {
		t.Fatalf("empty bucket admitted %d", m)
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 100ms]", retry)
	}
	if m, _ := q.AdmitN(base.Add(retry), 4); m != 1 {
		t.Fatal("waiting the advertised retryAfter must buy the next token")
	}
	if q.Shed.Load() != 7 {
		t.Fatalf("shed = %d, want 7 (4 refused + 3 past the partial)", q.Shed.Load())
	}
}

// TestQuotaRefundN: refunded tokens restore exactly the credit they
// cost, and over-refund cannot mint credit past one burst (Admit clamps
// its base to the clock).
func TestQuotaRefundN(t *testing.T) {
	q := NewQuota(1, 10, 0) // 1 tok/s: no refill inside the fixed-clock test
	base := time.Unix(1000, 0)
	if m, _ := q.AdmitN(base, 10); m != 10 {
		t.Fatalf("full burst admitted %d, want 10", m)
	}
	if m, _ := q.AdmitN(base, 1); m != 0 {
		t.Fatalf("empty bucket admitted %d", m)
	}
	q.RefundN(10)
	if m, _ := q.AdmitN(base, 10); m != 10 {
		t.Fatalf("refunded burst admitted %d, want 10", m)
	}
	// Wildly over-refund: the next admission is still capped at one burst.
	q.RefundN(1000)
	if m, _ := q.AdmitN(base, 20); m != 10 {
		t.Fatalf("over-refund minted credit: admitted %d, want 10", m)
	}
	if a := q.Admitted.Load(); a != 20+10-1010 {
		t.Fatalf("Admitted = %d, want net %d", a, 20+10-1010)
	}
}
