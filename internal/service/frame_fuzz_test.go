package service

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Fuzz targets for the batch frame codecs. Each checks two properties:
// an arbitrary frame parses to a result or an error, never a panic; and
// a value built from the fuzz input survives append* → parse* unchanged.
// The seeds, which run under plain go test, include the hostile-length
// and hostile-count frames a parser must reject before trusting them.
//
//	go test -run '^$' -fuzz '^FuzzParseDeliveries$' -fuzztime 10s ./internal/service

// hostileFrames are frames whose count or length fields lie: a count
// past maxBatchMsgs, a payload length of 2^63 (negative as an int), a
// length just past the buffer end, an overflowing varint, truncation.
func hostileFrames() [][]byte {
	delivery := func(length uint64, tail string) []byte {
		b := binary.AppendUvarint(nil, 1) // count
		b = binary.AppendUvarint(b, 5)    // id
		b = binary.AppendUvarint(b, 9)    // token
		b = binary.AppendUvarint(b, length)
		return append(b, tail...)
	}
	return [][]byte{
		nil,
		{0},
		binary.AppendUvarint(nil, maxBatchMsgs+1),
		binary.AppendUvarint(nil, 1<<63),
		delivery(1<<63, "stub"),
		delivery(100, "short"),
		append(binary.AppendUvarint(nil, 1), binary.AppendUvarint(nil, 1<<63)...),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{3, 9},
		{2, 1},
	}
}

func addSeeds(f *testing.F, valid ...[]byte) {
	for _, b := range append(hostileFrames(), valid...) {
		f.Add(b)
	}
}

// chunks splits data into at most maxBatchMsgs pieces at each 0 byte:
// a payload list derived from the fuzz input.
func chunks(data []byte) [][]byte {
	ps := bytes.Split(data, []byte{0})
	return ps[:min(len(ps), maxBatchMsgs)]
}

// words reads data as little-endian uint64s (a short tail padded), at
// most maxBatchMsgs of them.
func words(data []byte) []uint64 {
	var ws []uint64
	for len(data) > 0 && len(ws) < maxBatchMsgs {
		var w [8]byte
		n := copy(w[:], data)
		ws = append(ws, binary.LittleEndian.Uint64(w[:]))
		data = data[n:]
	}
	return ws
}

func FuzzParseProduceBatch(f *testing.F) {
	addSeeds(f, appendProduceBatch(nil, [][]byte{[]byte("a"), {}, []byte("bc")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if ps, err := parseProduceBatch(data, maxPayload, nil); err == nil && len(ps) > maxBatchMsgs {
			t.Fatalf("parsed %d payloads past the cap", len(ps))
		}
		want := chunks(data)
		got, err := parseProduceBatch(appendProduceBatch(nil, want), maxPayload, nil)
		if err != nil || len(got) != len(want) {
			t.Fatalf("round trip: %d of %d payloads, err %v", len(got), len(want), err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("payload %d = %q, want %q", i, got[i], want[i])
			}
		}
	})
}

func FuzzParseIDs(f *testing.F) {
	addSeeds(f, appendIDs(nil, []uint64{1, 1 << 40, 0, 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		parseIDs(data, nil)
		want := words(data)
		got, err := parseIDs(appendIDs(nil, want), nil)
		if err != nil || len(got) != len(want) {
			t.Fatalf("round trip: %d of %d ids, err %v", len(got), len(want), err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("id %d = %d, want %d", i, got[i], want[i])
			}
		}
	})
}

func FuzzParseDeliveries(f *testing.F) {
	valid := binary.AppendUvarint(nil, 2)
	valid = appendDelivery(valid, 5, 9, []byte("pay"))
	valid = appendDelivery(valid, 6, 10, nil)
	addSeeds(f, valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		parseDeliveries(data)
		// Each payload chunk becomes one delivery; ids and tokens are
		// drawn from the same bytes.
		payloads := chunks(data)
		ws := words(data)
		want := make([]Delivery, len(payloads))
		frame := binary.AppendUvarint(nil, uint64(len(want)))
		for i, p := range payloads {
			want[i] = Delivery{ID: uint64(i), Token: ^uint64(i), Payload: p}
			if i < len(ws) {
				want[i].ID = ws[i]
			}
			frame = appendDelivery(frame, want[i].ID, want[i].Token, p)
		}
		got, err := parseDeliveries(frame)
		if err != nil || len(got) != len(want) {
			t.Fatalf("round trip: %d of %d deliveries, err %v", len(got), len(want), err)
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.ID != w.ID || g.Token != w.Token || !bytes.Equal(g.Payload, w.Payload) {
				t.Fatalf("delivery %d = %+v, want %+v", i, g, w)
			}
		}
	})
}

func FuzzParseAckBatch(f *testing.F) {
	addSeeds(f, appendAckBatch(nil, []AckEntry{{ID: 3, Token: 4}, {ID: 8, Token: 1}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		parseAckBatch(data, nil)
		ws := words(data)
		want := make([]AckEntry, 0, len(ws)/2)
		for i := 0; i+1 < len(ws); i += 2 {
			want = append(want, AckEntry{ID: ws[i], Token: ws[i+1]})
		}
		got, err := parseAckBatch(appendAckBatch(nil, want), nil)
		if err != nil || len(got) != len(want) {
			t.Fatalf("round trip: %d of %d entries, err %v", len(got), len(want), err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

func FuzzParseAckResults(f *testing.F) {
	addSeeds(f, appendAckResults(nil, []AckResult{AckOK, AckConflict, AckUnknown}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if rs, err := parseAckResults(data, nil); err == nil {
			for i, r := range rs {
				if r > AckUnknown {
					t.Fatalf("result %d = %d accepted past AckUnknown", i, r)
				}
			}
		}
		want := make([]AckResult, min(len(data), maxBatchMsgs))
		for i := range want {
			want[i] = AckResult(data[i] % 3)
		}
		got, err := parseAckResults(appendAckResults(nil, want), nil)
		if err != nil || len(got) != len(want) {
			t.Fatalf("round trip: %d of %d results, err %v", len(got), len(want), err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("result %d = %v, want %v", i, got[i], want[i])
			}
		}
	})
}
