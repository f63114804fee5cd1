package main

import (
	"math"
	"strings"
	"testing"
)

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    uint64
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10_000, 0.999, true},
		{100_000, 0.9999, true},
		{1_000_000, 0.99999, true},
		{50_000_000, 0.99999, true},
	}
	for _, c := range cases {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSampleNoteReportsCountsAndSupport(t *testing.T) {
	note := sampleNote(0.99, 5000, "calls") + ","
	for _, want := range []string{"n=5000 calls", "highest supported p99,"} {
		if !strings.Contains(note, want) {
			t.Errorf("sampleNote(0.99, 5000) = %q, missing %q", note, want)
		}
	}
	if strings.Contains(note, "UNSUPPORTED") {
		t.Errorf("p99 of 5000 samples has 50 beyond it, but the note flags it: %q", note)
	}
	note = sampleNote(0.999, 5000, "calls")
	if !strings.Contains(note, "UNSUPPORTED") {
		t.Errorf("p99.9 of 5000 samples has 5 beyond it, but the note does not flag it: %q", note)
	}
}

func TestPctName(t *testing.T) {
	for q, want := range map[float64]string{0.5: "p50", 0.99: "p99", 0.999: "p99.9", 0.99999: "p99.999"} {
		if got := pctName(q); got != want {
			t.Errorf("pctName(%v) = %q, want %q", q, got, want)
		}
	}
}

func TestBucketsCoverTheirValues(t *testing.T) {
	for v := int64(0); v < 1<<20; v = v*5/4 + 1 {
		lo, width := bucketRange(bucketOf(v))
		if v < lo || v >= lo+width {
			t.Fatalf("value %d landed in bucket [%d, %d)", v, lo, lo+width)
		}
		if v >= subCount && float64(width)/float64(v) > 1.0/subCount {
			t.Fatalf("bucket of %d is %d wide, more than 1/%d of the value", v, width, subCount)
		}
	}
}

func TestHistQuantileWithinBucketPrecision(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	if h.n != 100_000 {
		t.Fatalf("n = %d, want 100000", h.n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * 100_000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %.1f, want %.1f within 1%%", q, got, want)
		}
	}
	var other hist
	other.add(1 << 30)
	h.merge(&other)
	if h.n != 100_001 || h.quantile(1) < 1<<30*0.99 {
		t.Errorf("after merge: n = %d, max quantile %.0f", h.n, h.quantile(1))
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestOpMedianAveragesKindMedians(t *testing.T) {
	var s timeSlice
	for i := 0; i < 3; i++ {
		s.op[kindPut].add(8000)
		s.op[kindTake].add(4000)
	}
	s.op[kindTake].add(4000)
	// A pooled median would be 4 us; each kind counts once instead.
	if got := opMedian(&s); math.Abs(got-6) > 0.1 {
		t.Errorf("opMedian = %.3f us, want 6 (mean of 8 and 4)", got)
	}
	if got := opMedian(&timeSlice{}); got != 0 {
		t.Errorf("opMedian of an empty slice = %v", got)
	}
}
