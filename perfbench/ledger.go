package main

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Every message the benchmark sends is named by a key: the producing
// worker in the top 8 bits, that worker's sequence number below. The
// payload is a pure function of (seed, key), so any consumer can check
// a delivery byte for byte without shared state, and the only input a
// run takes is its seed.

const (
	payloadSize = 64
	keyShift    = 56
	seqMask     = 1<<keyShift - 1
)

func makeKey(worker int, seq uint64) uint64 { return uint64(worker)<<keyShift | seq&seqMask }
func keyWorker(key uint64) int              { return int(key >> keyShift) }
func keySeq(key uint64) uint64              { return key & seqMask }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// appendPayload appends key's payload: the key itself, then bytes drawn
// from a splitmix64 stream keyed by (seed, key).
func appendPayload(dst []byte, seed, key uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, key)
	x := splitmix(seed ^ splitmix(key))
	for i := 8; i < payloadSize; i += 8 {
		x = splitmix(x)
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	return dst
}

// payloadKey extracts the key from a payload's first 8 bytes.
func payloadKey(p []byte) (uint64, bool) {
	if len(p) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p), true
}

// checkPayload reports whether p is exactly the payload seed gives its
// embedded key; scratch is reused to regenerate the expected bytes.
func checkPayload(p []byte, seed uint64, scratch []byte) (key uint64, ok bool, _ []byte) {
	key, ok = payloadKey(p)
	if !ok || len(p) != payloadSize {
		return key, false, scratch
	}
	scratch = appendPayload(scratch[:0], seed, key)
	return key, string(scratch) == string(p), scratch
}

// ledger is the exactly-once record: per producing worker, one bit per
// sequence number for "delivered" and one for "acked". Producers only
// append; consumers on any worker set bits with atomic ORs.
type ledger struct {
	epoch   time.Time
	workers []ledgerWorker
}

type ledgerWorker struct {
	produced  atomic.Uint64 // sequence numbers 0..produced-1 were sent
	delivered bitset
	acked     bitset
	stamps    [stampRing]stamp
}

// stampRing bounds how many of one worker's sequence numbers may lie
// between a message's produce and its delivery for the delivery to be
// timed; older stamps are overwritten and their deliveries go untimed.
const stampRing = 1 << 16

// stamp is a produce-call start time, tagged with its sequence number
// plus one; the tag is written last and re-read to detect overwrites.
type stamp struct {
	tag atomic.Uint64
	at  atomic.Int64
}

func newLedger(workers int) *ledger {
	return &ledger{epoch: time.Now(), workers: make([]ledgerWorker, workers)}
}

// stampProduce records at as the produce start of worker w's sequence
// numbers first..first+n-1.
func (l *ledger) stampProduce(w int, first uint64, n int, at time.Time) {
	ns := at.Sub(l.epoch).Nanoseconds()
	lw := &l.workers[w]
	for seq := first; seq < first+uint64(n); seq++ {
		st := &lw.stamps[seq%stampRing]
		st.tag.Store(0)
		st.at.Store(ns)
		st.tag.Store(seq + 1)
	}
}

// deliveryLatency returns the time from key's produce start to now.
func (l *ledger) deliveryLatency(key uint64, now time.Time) (int64, bool) {
	w, seq := keyWorker(key), keySeq(key)
	if w >= len(l.workers) {
		return 0, false
	}
	st := &l.workers[w].stamps[seq%stampRing]
	if st.tag.Load() != seq+1 {
		return 0, false
	}
	at := st.at.Load()
	if st.tag.Load() != seq+1 {
		return 0, false
	}
	return now.Sub(l.epoch).Nanoseconds() - at, true
}

// produce reserves the next n sequence numbers of worker w and returns
// the first. Only worker w calls it.
func (l *ledger) produce(w int, n int) uint64 {
	lw := &l.workers[w]
	first := lw.produced.Load()
	lw.delivered.ensure(first + uint64(n))
	lw.acked.ensure(first + uint64(n))
	lw.produced.Store(first + uint64(n))
	return first
}

func (l *ledger) lookup(key uint64) (*ledgerWorker, uint64, bool) {
	w, seq := keyWorker(key), keySeq(key)
	if w >= len(l.workers) || seq >= l.workers[w].produced.Load() {
		return nil, 0, false
	}
	return &l.workers[w], seq, true
}

// deliver records one delivery of key and reports whether it is the
// first delivery of a key that was produced. No lease expires during a
// run (the lease is far longer than the run), so a second delivery of
// any key is a duplicate.
func (l *ledger) deliver(key uint64) bool {
	lw, seq, ok := l.lookup(key)
	return ok && !lw.delivered.set(seq)
}

// ack records one successful ack of key and reports whether it is the
// first ack of a key that was produced.
func (l *ledger) ack(key uint64) bool {
	lw, seq, ok := l.lookup(key)
	return ok && !lw.acked.set(seq)
}

// lost counts produced keys that were never delivered (withAck false)
// or never acked (withAck true). Call it once every worker has stopped.
func (l *ledger) lost(withAck bool) int64 {
	var n int64
	for i := range l.workers {
		lw := &l.workers[i]
		b := &lw.delivered
		if withAck {
			b = &lw.acked
		}
		n += int64(lw.produced.Load()) - b.count(lw.produced.Load())
	}
	return n
}

// bitset is a growable bitset whose chunks are published atomically,
// so the owning producer can grow it while consumers set bits.
type bitset struct {
	chunks [maxChunks]atomic.Pointer[[chunkWords]atomic.Uint64]
}

const (
	chunkWords = 1 << 14 // 1M bits (128 KB) per chunk
	chunkBits  = chunkWords * 64
	maxChunks  = 1 << 10 // 1G messages per worker
)

func (b *bitset) ensure(n uint64) {
	for c := uint64(0); c*chunkBits < n; c++ {
		if c >= maxChunks {
			panic(fmt.Sprintf("perfbench: more than %d messages from one worker", uint64(maxChunks)*chunkBits))
		}
		if b.chunks[c].Load() == nil {
			b.chunks[c].Store(new([chunkWords]atomic.Uint64))
		}
	}
}

// set sets bit i and reports whether it was already set.
func (b *bitset) set(i uint64) bool {
	mask := uint64(1) << (i % 64)
	old := b.chunks[i/chunkBits].Load()[(i%chunkBits)/64].Or(mask)
	return old&mask != 0
}

// count returns how many of the first n bits are set.
func (b *bitset) count(n uint64) int64 {
	var total int64
	for i := uint64(0); i < n; i += 64 {
		w := b.chunks[i/chunkBits].Load()[(i%chunkBits)/64].Load()
		if rest := n - i; rest < 64 {
			w &= 1<<rest - 1
		}
		total += int64(bits.OnesCount64(w))
	}
	return total
}

// counts is one run's operation tally; everything in the fail ratio's
// numerator is a way a call or a message went wrong.
type counts struct {
	attempted  int64 // public calls issued
	items      int64 // items dequeued (turn-pairs) or messages acked
	refused    int64 // attempts the service turned away (429/503), retried or not
	errored    int64 // calls that returned an error
	lost       int64 // produced, never delivered or acked
	duplicated int64 // delivered or acked twice, or never produced
	mismatched int64 // payload bytes differ from what the seed gives
	emptyPairs int64 // turn-pairs: a dequeue found the queue empty
	misordered int64 // turn-pairs: a producer's items seen out of order
}

func (c *counts) add(o counts) {
	c.attempted += o.attempted
	c.items += o.items
	c.refused += o.refused
	c.errored += o.errored
	c.lost += o.lost
	c.duplicated += o.duplicated
	c.mismatched += o.mismatched
	c.emptyPairs += o.emptyPairs
	c.misordered += o.misordered
}

func (c counts) failed() int64 {
	return c.refused + c.errored + c.lost + c.duplicated + c.mismatched + c.emptyPairs + c.misordered
}

// failRatio is failed operations per attempted operation.
func (c counts) failRatio() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed()) / float64(c.attempted)
}
