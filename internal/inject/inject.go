// Package inject is the fault-point injection layer behind the chaos
// tests: a catalog of named injection points compiled into the
// stall-sensitive windows of every queue implementation, plus a policy
// registry that decides — at each point, at runtime — whether the
// arriving goroutine is delayed, yielded, parked forever, or crashed.
//
// The layer exists to test the two claims the paper stakes everything
// on, on the *real* queues rather than on step-instrumented models
// (internal/schedsim):
//
//   - wait-freedom: every operation completes in a bounded number of its
//     own steps no matter what other threads do — including a thread
//     parked forever in the middle of an operation;
//   - bounded reclamation (§2.4/§3): a stalled thread strands at most
//     R + maxThreads·numHPs nodes under hazard pointers, while an epoch
//     scheme's backlog grows without bound.
//
// Build modes. The package compiles in two shapes, selected by the
// `faultpoints` build tag:
//
//   - Release (no tag, disabled.go): Fire is an empty function with a
//     constant argument. The compiler inlines it to nothing, so the
//     instrumented hot paths are bit-for-bit the uninstrumented ones;
//     scripts/bench.sh smoke gates that this stays true against the
//     recorded benchmark baseline.
//   - Chaos (-tags faultpoints, enabled.go): Fire checks one global
//     atomic counter ("is anything armed?") and, when a policy is armed
//     on the point, applies it. Unarmed points cost one atomic load.
//
// Determinism and replay. Delay policies draw from a splitmix64 stream
// keyed on (seed, point, hit index), so a failing schedule replays from
// its logged seed (tests read CHAOS_SEED). Stall and crash policies are
// claim-based: the first Limit arrivals are affected, later ones pass —
// tests arm a point, park their designated victim, then disarm before
// starting healthy workers, so exactly the intended goroutine is hit.
//
// The point catalog (Point constants below) is the stall-window
// inventory of DESIGN.md §1d: each name marks a window where a real
// thread death or deschedule historically discriminates between the
// progress/reclamation classes the paper compares.
package inject

import (
	"fmt"
	"time"
)

// Point names one injection site compiled into a queue implementation.
// The zero-cost contract: in release builds every Fire(point) call
// vanishes; under -tags faultpoints it is one atomic load while the
// point is unarmed.
type Point uint8

// The stall-window catalog. Ordering is stable (tests and cmd/chaos
// refer to points by name); new points append before NumPoints.
const (
	// CoreEnqPublish: Turn queue, enqueue request published in
	// enqueuers[tid] but the helping loop not yet entered — a crash here
	// leaves a request other threads must complete on the dead thread's
	// behalf.
	CoreEnqPublish Point = iota
	// CoreEnqHelp: top of one Turn-queue enqueue helping iteration (the
	// turn-advance window, between hazard validation rounds).
	CoreEnqHelp
	// CoreDeqOpen: Turn queue, dequeue request opened (deqself ==
	// deqhelp) but the helping loop not yet entered.
	CoreDeqOpen
	// CoreDeqHelp: top of one Turn-queue dequeue helping iteration.
	CoreDeqHelp
	// HazardProtect: inside hazard.Domain.ProtectPtr, after the
	// protection is published and before the caller revalidates — the
	// load-store-load window of the paper's Algorithm 5. A thread parked
	// here pins at most numHPs nodes forever; that is the bound §3
	// claims.
	HazardProtect
	// HazardRetire: a node has been appended to the retire list and the
	// scan has not yet run.
	HazardRetire
	// KPQInstall: Kogan-Petrank, own descriptor installed (pending) but
	// help() not yet entered — the window where the paper's helping
	// mechanism must finish the parked thread's operation.
	KPQInstall
	// EpochEnter: epoch reclamation, the epoch announced and the
	// read-side critical section open. A thread parked here pins the
	// global epoch — the §3 unbounded-backlog scenario.
	EpochEnter
	// FAAQRead: FAA segment queue, inside the read-side critical section
	// (after epochs.Enter, before the ticket loop).
	FAAQRead
	// MSQEnqLoop: Michael-Scott, top of one enqueue CAS retry — the
	// unbounded window that makes MS lock-free rather than wait-free.
	MSQEnqLoop
	// MSQDeqLoop: Michael-Scott, top of one dequeue CAS retry.
	MSQDeqLoop
	// MPSCPublish: Vyukov MPSC, between the producer's exchange and its
	// link store — the documented blocking window (internal/mpsc): items
	// behind a producer parked here stay invisible to the consumer.
	MPSCPublish
	// LockQEnqLocked: two-lock queue, tail lock held and the link not yet
	// published. A thread parked here blocks every other enqueuer — the
	// blocking-baseline negative control.
	LockQEnqLocked
	// LockQDeqLocked: two-lock queue, head lock held.
	LockQDeqLocked
	// CoreEnqBatchPublish: Turn queue, a batch's pre-linked chain
	// published as a single request (the chain's last node stored in
	// enqueuers[tid]) but the helping loop not yet entered — the
	// chain-publish window. A thread parked here must leave other threads
	// installing the whole chain on its behalf, all-or-nothing.
	CoreEnqBatchPublish
	// CoreFastClaim: TurnPlus, inside the fast-path claim window — an FAA
	// ticket has been drawn (enqueue) or a claim box installed (dequeue)
	// but the cell transition is not yet final. A thread parked here must
	// not block any other thread: enqueue tickets are abandoned to the
	// poison protocol, and claim boxes are resolvable by any helper.
	CoreFastClaim
	// CoreFastFallback: TurnPlus, at the fast→slow handoff — patience is
	// exhausted but the consensus announce (enqueue) or the request
	// publication (dequeue) has not happened yet. A thread parked here has
	// no published state at all, so it can affect nobody.
	CoreFastFallback
	// SvcConnStall: internal/service, mid-body on a produce/consume
	// connection — the request has been admitted (quota token spent,
	// in-flight slot held) but the response body is not yet written. A
	// connection parked here must not hold a queue handle or block any
	// other tenant's requests.
	SvcConnStall
	// SvcConsumerCrash: internal/service, between a consume's successful
	// DequeueBatch and its first delivery-lease grant — the consumer-crash
	// window. Every dequeued message must come back exactly once; the
	// chaos suite's zero-lost/zero-duplicated assertion lives on this
	// point.
	SvcConsumerCrash
	// SvcSlowReader: internal/service, a consume stream whose client reads
	// slowly — fired per chunk written. A reader parked here holds its
	// delivery lease past the deadline; the message must be redelivered to
	// a healthy consumer while backend reclaim backlog stays within
	// Bound().
	SvcSlowReader
	// SvcBatchLease: internal/service, a consume-batch handler whose
	// whole batch of leases is committed but whose response is unwritten.
	// A consumer parked here holds k leases past their shared deadline;
	// the sweeper must redeliver every one of them exactly once, and each
	// of the parked consumer's eventual acks must come back 409.
	SvcBatchLease
	// NumPoints bounds the catalog; it is not a point.
	NumPoints
)

var pointNames = [NumPoints]string{
	CoreEnqPublish:      "core.enq.publish",
	CoreEnqHelp:         "core.enq.help",
	CoreDeqOpen:         "core.deq.open",
	CoreDeqHelp:         "core.deq.help",
	HazardProtect:       "hazard.protect",
	HazardRetire:        "hazard.retire",
	KPQInstall:          "kpq.install",
	EpochEnter:          "epoch.enter",
	FAAQRead:            "faaq.read",
	MSQEnqLoop:          "msq.enq.loop",
	MSQDeqLoop:          "msq.deq.loop",
	MPSCPublish:         "mpsc.publish",
	LockQEnqLocked:      "lockq.enq.locked",
	LockQDeqLocked:      "lockq.deq.locked",
	CoreEnqBatchPublish: "core.enq.batch.publish",
	CoreFastClaim:       "core.fast.claim",
	CoreFastFallback:    "core.fast.fallback",
	SvcConnStall:        "svc.conn.stall",
	SvcConsumerCrash:    "svc.consumer.crash",
	SvcSlowReader:       "svc.reader.slow",
	SvcBatchLease:       "svc.batch.lease",
}

// String returns the point's catalog name.
func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return fmt.Sprintf("inject.Point(%d)", uint8(p))
}

// PointByName resolves a catalog name (e.g. "core.enq.help") back to its
// Point; ok=false if the name is unknown. cmd/chaos uses it for its
// -point flag.
func PointByName(name string) (Point, bool) {
	for p, n := range pointNames {
		if n == name {
			return Point(p), true
		}
	}
	return NumPoints, false
}

// Kind selects a policy's behaviour at the point.
type Kind uint8

// Policy kinds.
const (
	// KindStall parks the arriving goroutine until ReleaseStalled (or
	// Reset) — a crashed thread that still holds whatever the point's
	// window holds: hazard pointers, an epoch announcement, a lock, an
	// unfinished announce.
	KindStall Kind = iota
	// KindCrash panics with a CrashError — thread death mid-operation.
	// The harness recovers the panic and abandons the thread's Handle
	// without Close, modelling crash-without-cleanup.
	KindCrash
	// KindDelay sleeps a seeded-random duration in [Min, Max].
	KindDelay
	// KindYield calls runtime.Gosched — the deterministic adversarial
	// scheduler nudge.
	KindYield
)

// Policy is what Arm attaches to a point. Construct with Stall, Crash,
// Delay, or Yield; the zero value is a no-op.
type Policy struct {
	Kind Kind
	// Limit caps how many arrivals the policy affects (stall/crash):
	// the first Limit goroutines to reach the point are hit, later ones
	// pass through. Zero means unlimited.
	Limit int64
	// Every fires the policy only on every Every-th hit (delay/yield);
	// zero or one means every hit.
	Every int64
	// Min/Max bound the delay duration (KindDelay).
	Min, Max time.Duration
	// Seed keys the delay stream; identical seeds replay identical
	// delay schedules for identical hit sequences.
	Seed uint64
}

// String renders the policy the way cmd/chaos -list prints the catalog:
// the kind, then only the knobs that matter for that kind.
func (pol Policy) String() string {
	switch pol.Kind {
	case KindStall:
		if pol.Limit > 0 {
			return fmt.Sprintf("stall(limit=%d)", pol.Limit)
		}
		return "stall(all)"
	case KindCrash:
		if pol.Limit > 0 {
			return fmt.Sprintf("crash(limit=%d)", pol.Limit)
		}
		return "crash(all)"
	case KindDelay:
		return fmt.Sprintf("delay(%v..%v, seed=%#x)", pol.Min, pol.Max, pol.Seed)
	case KindYield:
		every := pol.Every
		if every < 1 {
			every = 1
		}
		return fmt.Sprintf("yield(every=%d)", every)
	}
	return fmt.Sprintf("policy(kind=%d)", uint8(pol.Kind))
}

// Stall returns a policy that parks the first limit arrivals forever
// (until ReleaseStalled). limit <= 0 parks every arrival.
func Stall(limit int) Policy { return Policy{Kind: KindStall, Limit: int64(limit)} }

// Crash returns a policy that panics with a CrashError for the first
// limit arrivals. limit <= 0 crashes every arrival.
func Crash(limit int) Policy { return Policy{Kind: KindCrash, Limit: int64(limit)} }

// Delay returns a policy sleeping a seeded-random duration in [min, max]
// on every hit.
func Delay(seed uint64, min, max time.Duration) Policy {
	if max < min {
		min, max = max, min
	}
	return Policy{Kind: KindDelay, Seed: seed, Min: min, Max: max}
}

// Yield returns a policy calling runtime.Gosched on every every-th hit
// (every <= 1: each hit).
func Yield(every int) Policy { return Policy{Kind: KindYield, Every: int64(every)} }

// CrashError is the panic value of KindCrash policies. Chaos harnesses
// recover it (and only it) to model a thread dying mid-operation while
// its Handle stays registered.
type CrashError struct {
	Point Point
}

func (e CrashError) Error() string {
	return "inject: simulated thread crash at fault point " + e.Point.String()
}
