// Package consensus is the extracted turn-consensus slow path shared by
// every Turn-family queue in this repository: the request arrays,
// phase/turn ordering, active-slot helping loops, chain-aware batch
// install, and overrun accounting that internal/core, internal/turnmpsc,
// internal/turnspmc and internal/turnplus previously each carried a copy
// of (or now build on).
//
// The API is announce → help-until-done → linearize:
//
//   - Enq.Announce publishes a prepared Node (or batch chain) in the
//     caller's request slot and helps in turn order until a helper — any
//     helper — has installed it at the tail and cleared the slot. The
//     operation linearizes at the install CAS on the predecessor's next
//     pointer.
//   - Deq.DequeueOne opens a request (deqself==deqhelp), helps in turn
//     order until some helper assigns a node to the request, and
//     finishes the head advance. The operation linearizes at the deqTid
//     claim CAS on the assigned node (or, for the empty return, at the
//     head==tail observation validated by the giveUp rollback).
//
// Queues compose the engines with their own allocation, reclamation, and
// batching policy: the full MPMC queue pairs Enq with Deq; the MPSC
// composition pairs Enq with an owner-only head; the SPMC composition
// pairs an owner-only tail with Deq; TurnPlus runs a bounded FAA
// fast path in front of both engines. Every engine loop preserves the
// paper's wait-free bound — at most maxThreads+1 helping iterations per
// operation, with iterations beyond the bound counted in Overruns rather
// than trusted — so any queue built on this package inherits the bound
// by construction.
package consensus
