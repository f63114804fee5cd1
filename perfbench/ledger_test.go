package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestFailRatio(t *testing.T) {
	c := counts{attempted: 1000, items: 500, refused: 1, errored: 2, lost: 3, duplicated: 4, mismatched: 5, emptyPairs: 6, misordered: 7}
	if got := c.failed(); got != 28 {
		t.Errorf("failed = %d, want 28 (every way to fail, items excluded)", got)
	}
	if got := c.failRatio(); got != 0.028 {
		t.Errorf("failRatio = %v, want 0.028", got)
	}
	var sum counts
	sum.add(c)
	sum.add(c)
	if sum.attempted != 2000 || sum.failed() != 56 || sum.failRatio() != 0.028 {
		t.Errorf("sum of two tallies: %+v", sum)
	}
	if got := (counts{}).failRatio(); got != 0 {
		t.Errorf("failRatio with nothing attempted = %v, want 0", got)
	}
}

func TestLedgerDetectsLostMessage(t *testing.T) {
	l := newLedger(2)
	first := l.produce(1, 3)
	for seq := first; seq < first+2; seq++ {
		key := makeKey(1, seq)
		if !l.deliver(key) || !l.ack(key) {
			t.Fatalf("clean delivery of seq %d refused", seq)
		}
	}
	if got := l.lost(true); got != 1 {
		t.Errorf("lost(acked) = %d, want 1", got)
	}
	if got := l.lost(false); got != 1 {
		t.Errorf("lost(delivered) = %d, want 1", got)
	}
	l.deliver(makeKey(1, first+2))
	if got := l.lost(false); got != 0 {
		t.Errorf("lost(delivered) after the last delivery = %d, want 0", got)
	}
	if got := l.lost(true); got != 1 {
		t.Errorf("lost(acked) with one delivery never acked = %d, want 1", got)
	}
}

func TestLedgerDetectsDuplicateAndUnknown(t *testing.T) {
	l := newLedger(2)
	first := l.produce(0, 1)
	key := makeKey(0, first)
	if !l.deliver(key) {
		t.Fatal("first delivery refused")
	}
	if l.deliver(key) {
		t.Error("second delivery of one message not flagged as a duplicate")
	}
	if !l.ack(key) || l.ack(key) {
		t.Error("second ack of one message not flagged as a duplicate")
	}
	if l.deliver(makeKey(0, first+1)) {
		t.Error("delivery of a message never produced not flagged")
	}
	if l.deliver(makeKey(5, 0)) {
		t.Error("delivery naming a worker that does not exist not flagged")
	}
}

func TestLedgerGrowsAcrossChunks(t *testing.T) {
	l := newLedger(1)
	first := l.produce(0, chunkBits+10)
	last := makeKey(0, first+chunkBits+9)
	if !l.deliver(last) || !l.ack(last) {
		t.Fatal("delivery in the second chunk refused")
	}
	if got := l.lost(true); got != chunkBits+9 {
		t.Errorf("lost = %d, want %d", got, chunkBits+9)
	}
}

func TestDeliveryLatency(t *testing.T) {
	l := newLedger(1)
	seq := l.produce(0, 1)
	start := l.epoch.Add(time.Millisecond)
	l.stampProduce(0, seq, 1, start)
	if ns, ok := l.deliveryLatency(makeKey(0, seq), start.Add(5*time.Microsecond)); !ok || ns != 5000 {
		t.Errorf("latency = %d, %v; want 5000, true", ns, ok)
	}
	l.stampProduce(0, seq+stampRing, 1, start)
	if _, ok := l.deliveryLatency(makeKey(0, seq), start); ok {
		t.Error("an overwritten stamp still timed its delivery")
	}
}

func TestPayloadsComeFromTheSeed(t *testing.T) {
	key := makeKey(1, 42)
	a := appendPayload(nil, 7, key)
	if len(a) != payloadSize {
		t.Fatalf("payload is %d bytes, want %d", len(a), payloadSize)
	}
	if !bytes.Equal(a, appendPayload(nil, 7, key)) {
		t.Error("one seed gave two payloads for one key")
	}
	if bytes.Equal(a, appendPayload(nil, 8, key)) {
		t.Error("two seeds gave the same payload")
	}
	if got, ok, _ := checkPayload(a, 7, nil); !ok || got != key {
		t.Errorf("checkPayload of a good payload = %x, %v", got, ok)
	}
	bad := append([]byte(nil), a...)
	bad[payloadSize-1] ^= 1
	if _, ok, _ := checkPayload(bad, 7, nil); ok {
		t.Error("a flipped payload byte passed the check")
	}
	if _, ok, _ := checkPayload(a[:payloadSize-1], 7, nil); ok {
		t.Error("a truncated payload passed the check")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
