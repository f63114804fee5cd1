package main

import (
	"testing"
	"time"
)

func sp(start, end int64) span { return span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	parent := sp(100, 200)
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{sp(120, 150)}, 70},
		{"disjoint children", []span{sp(110, 120), sp(150, 170)}, 70},
		{"overlapping children count once", []span{sp(110, 150), sp(140, 160)}, 50},
		{"nested child inside another", []span{sp(110, 190), sp(120, 130)}, 20},
		{"touching children", []span{sp(110, 130), sp(130, 150)}, 60},
		{"child clipped to the parent", []span{sp(50, 120), sp(180, 260)}, 60},
		{"child outside the parent", []span{sp(10, 90), sp(210, 300)}, 100},
		{"unsorted overlapping children", []span{sp(160, 180), sp(105, 115), sp(170, 195), sp(110, 112)}, 55},
		{"children covering everything", []span{sp(90, 150), sp(150, 210)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestRecorderLedgerAddsUp builds one fabricated public call with two
// round trips, one of them answered by a handler span, and checks that
// the layers' self times partition the call's duration.
func TestRecorderLedgerAddsUp(t *testing.T) {
	tr := newTracer()
	r := tr.recorder()
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }

	id := tr.newID()
	rt1 := span{ID: tr.newID(), Parent: id, Name: "http.roundtrip", Start: 100, End: 400}
	rt2 := span{ID: tr.newID(), Parent: id, Name: "http.roundtrip", Start: 500, End: 700}
	r.pending = append(r.pending, rt1, rt2)
	tr.putServer(rt1.ID, endpointIndex("/topics/t/produce-batch"), 150, 350)

	r.end("client", "client.produce_batch", id, at(0), at(1000))

	if got := r.layerSelf["handler"]; got != 200 {
		t.Errorf("handler self = %d, want 200", got)
	}
	if got := r.layerSelf["http"]; got != 100+200 {
		t.Errorf("http self = %d, want 300 (rt1 minus its handler, plus all of rt2)", got)
	}
	if got := r.layerSelf["client"]; got != 1000-300-200 {
		t.Errorf("client self = %d, want 500", got)
	}
	var sum int64
	for _, ns := range r.layerSelf {
		sum += ns
	}
	if sum != r.opNS || r.opNS != 1000 {
		t.Errorf("layers sum to %d, op time %d, want both 1000", sum, r.opNS)
	}
	if r.unmatched != 1 {
		t.Errorf("unmatched = %d, want 1 (rt2 had no handler span)", r.unmatched)
	}
	if h := r.hists["handler.produce_batch"]; h == nil || h.n != 1 {
		t.Errorf("handler.produce_batch span not recorded")
	}
	if len(r.pending) != 0 {
		t.Errorf("pending round trips not consumed")
	}
	for _, s := range r.kept {
		if s.Req != id {
			t.Errorf("span %q has request id %d, want the call's %d", s.Name, s.Req, id)
		}
	}
}

func TestServerSlotRejectsAnotherRequest(t *testing.T) {
	tr := newTracer()
	tr.putServer(7, endpointIndex("/topics/t/ack"), 1, 2)
	if _, ok := tr.takeServer(7 + serverRing); ok {
		t.Fatal("a request sharing the slot read another request's span")
	}
	if s, ok := tr.takeServer(7); !ok || s.Name != "handler.ack" {
		t.Fatalf("takeServer(7) = %+v, %v", s, ok)
	}
}
