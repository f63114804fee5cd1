// Package universal implements a copy-on-write wait-free universal
// construction in the lineage the paper's conclusion points at: the
// authors' "CommutationQ — a copy-on-write technique with wait-free
// progress" (§5, citation [4]) builds arbitrary wait-free objects from a
// wait-free queue of announced mutations; Herlihy's methodology (§5,
// citation [11]) is the general blueprint. This package provides the
// construct so the repository can demonstrate §5's claim that the queue
// machinery generalizes: examples/ledger builds a wait-free ledger on it.
//
// Protocol (the same announce-combine-install scheme as internal/simq,
// generalized from "FIFO dequeue" to any sequential object):
//
//  1. A thread announces (slot, seq, argument) in its announce entry.
//  2. Any thread may combine: clone the current state snapshot, apply
//     every announced-but-unapplied operation in slot order recording
//     per-slot results, and CAS the new snapshot in.
//  3. An operation returns once some snapshot records it applied; its
//     result rides in the snapshot's results vector.
//
// Progress matches internal/simq: combining loops until the operation is
// observed applied — one or two rounds in practice, hard-capped like
// every helping loop in this repository — so read it as "wait-free in
// the P-Sim sense", with the toggle-bit proof machinery elided.
//
// Cost model: every combine clones the whole object, so this is for
// small hot objects (counters, cursors, small stacks/registers), exactly
// the regime copy-on-write universal constructions target.
package universal

import (
	"fmt"
	"sync/atomic"

	"turnqueue/internal/pad"
	"turnqueue/internal/qrt"
)

const hardIterCap = 1 << 22

// state is an immutable snapshot: the object plus per-slot bookkeeping.
type state[S, R any] struct {
	applied []uint64
	results []R
	obj     S
}

// request is one announced operation.
type request[A any] struct {
	seq uint64
	arg A
}

// Universal wraps a sequential object of type S with operations taking
// an argument A and returning a result R.
type Universal[S, A, R any] struct {
	maxThreads int
	clone      func(S) S
	apply      func(S, A) (S, R)

	cur atomic.Pointer[state[S, R]]
	_   [2*pad.CacheLine - 8]byte

	announce []pad.PointerSlot[request[A]]
	seqs     []pad.Int64Slot
	rt       *qrt.Runtime

	combines   pad.Int64Slot
	piggybacks pad.Int64Slot
}

// New creates a Universal over the initial object. clone must deep-copy
// the parts of S that apply mutates; apply executes one operation on a
// private copy and returns the (possibly replaced) object and the
// operation's result. Both must be deterministic and side-effect free
// outside the object.
func New[S, A, R any](maxThreads int, initial S, clone func(S) S, apply func(S, A) (S, R)) *Universal[S, A, R] {
	if maxThreads <= 0 {
		panic(fmt.Sprintf("universal: maxThreads must be positive, got %d", maxThreads))
	}
	if clone == nil || apply == nil {
		panic("universal: nil clone or apply")
	}
	u := &Universal[S, A, R]{
		maxThreads: maxThreads,
		clone:      clone,
		apply:      apply,
		announce:   make([]pad.PointerSlot[request[A]], maxThreads),
		seqs:       make([]pad.Int64Slot, maxThreads),
		rt:         qrt.New(maxThreads),
	}
	u.cur.Store(&state[S, R]{
		applied: make([]uint64, maxThreads),
		results: make([]R, maxThreads),
		obj:     initial,
	})
	return u
}

// MaxThreads returns the thread bound.
func (u *Universal[S, A, R]) MaxThreads() int { return u.maxThreads }

// Runtime returns the per-thread runtime.
func (u *Universal[S, A, R]) Runtime() *qrt.Runtime { return u.rt }

// Stats reports winning combines and piggybacked operations.
func (u *Universal[S, A, R]) Stats() (combines, piggybacks int64) {
	return u.combines.V.Load(), u.piggybacks.V.Load()
}

// Do executes one operation with argument arg on behalf of thread slot
// threadID and returns its result. Linearizable: the operation takes
// effect exactly once, at the install of the snapshot that first applied
// it.
func (u *Universal[S, A, R]) Do(threadID int, arg A) R {
	if threadID < 0 || threadID >= u.maxThreads {
		panic(fmt.Sprintf("universal: thread id %d out of range [0,%d)", threadID, u.maxThreads))
	}
	u.rt.EnsureActive(threadID)
	seq := uint64(u.seqs[threadID].V.Add(1))
	u.announce[threadID].P.Store(&request[A]{seq: seq, arg: arg})
	for iter := 0; ; iter++ {
		if iter == hardIterCap {
			panic("universal: combining loop exceeded hard cap")
		}
		s := u.cur.Load()
		if s.applied[threadID] >= seq {
			u.piggybacks.V.Add(1)
			return s.results[threadID]
		}
		ns := &state[S, R]{
			applied: make([]uint64, u.maxThreads),
			results: make([]R, u.maxThreads),
			obj:     u.clone(s.obj),
		}
		copy(ns.applied, s.applied)
		copy(ns.results, s.results)
		// An announcement is only visible from a slot that entered the
		// active set first (Do runs EnsureActive before the store), so
		// the combine pass visits only active slots.
		u.rt.ForActive(0, u.rt.ActiveLimit(), func(i int) bool {
			r := u.announce[i].P.Load()
			if r == nil || r.seq != ns.applied[i]+1 {
				return true
			}
			ns.obj, ns.results[i] = u.apply(ns.obj, r.arg)
			ns.applied[i] = r.seq
			return true
		})
		if u.cur.CompareAndSwap(s, ns) {
			u.combines.V.Add(1)
			if ns.applied[threadID] >= seq {
				return ns.results[threadID]
			}
		}
	}
}

// Read returns a linearizable snapshot of the object: the object of the
// current installed state (immutable once installed). Callers must not
// mutate it.
func (u *Universal[S, A, R]) Read() S {
	return u.cur.Load().obj
}
