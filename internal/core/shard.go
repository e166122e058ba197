package core

import (
	"runtime"

	"jinjing/internal/obs"
	"jinjing/internal/topo"
)

// windows returns the FEC ranges a check walks, ascending: the whole
// index space, or on a sharded engine the streaming index's contiguous,
// weight-balanced shards (topo.FECSource.Shards). Contiguity keeps the
// global FEC order intact, so merged results need no re-sorting and in
// first-violation mode the global minimum lives in the earliest window
// that reports one.
func (ctx *checkCtx) windows(shards int) []topo.ShardRange {
	if ctx.src == nil {
		return []topo.ShardRange{{Lo: 0, Hi: ctx.nfec}}
	}
	return ctx.src.Shards(shards)
}

// openWindow readies FEC range w and returns the session its queries
// are encoded and decided on. Unsharded, that is the engine's
// persistent session. A shard materializes only its own FECs and gets a
// throwaway session — private encoder, prototype, and solvers — that
// closeWindow drops, so live solver memory is bounded by the largest
// shard instead of the whole scope. The price is warm-path work: shard
// formulas cannot outlive their shard, so every call re-encodes the
// shards it visits (the verdict cache, change-impact analysis, and
// pre-filter — all builder-independent — still discharge unchanged
// FECs before any formula is built).
//
// fec.materialized counts the FECs materialized from the lazy source
// so far (windows are contiguous from 0, so that is w.Hi); shard.live
// counts shards whose formulas are live — ≤1 by construction, and that
// bound IS the memory claim, so it is reported rather than asserted.
func (ctx *checkCtx) openWindow(w topo.ShardRange, tournament bool, o *obs.Observer) *checkSession {
	if ctx.src == nil {
		return ctx.sess
	}
	ctx.window = make([]topo.FEC, w.Hi-w.Lo)
	for i := range ctx.window {
		ctx.window[i] = ctx.src.Materialize(w.Lo + i)
	}
	ctx.winLo = w.Lo
	ctx.shard = &checkSession{enc: newEncoder(tournament, o)}
	o.Gauge("fec.materialized").Set(int64(w.Hi))
	o.Gauge("shard.live").Set(1)
	return ctx.shard
}

// closeWindow folds the window's builder size into the call's maximum
// and, for a shard, samples the heap while its window and builder are
// both live — the per-call peak the memory envelope is judged by — then
// releases the window, the session, and every job query built on it.
// Leftover pending states (skipped past a first violation) drop back to
// unresolved: their smt.F handles point into the released builder and
// must never be replayed; a later call re-resolves them from scratch.
// All such indices lie beyond the scan's answer, so the reported counts
// are untouched.
func (ctx *checkCtx) closeWindow(w topo.ShardRange, s *checkSession, o *obs.Observer) {
	if n := int64(s.enc.b.NumNodes()); n > ctx.maxNodes {
		ctx.maxNodes = n
	}
	if ctx.shard == nil {
		return
	}
	ctx.sampleHeap()
	ctx.window, ctx.winLo, ctx.shard = nil, 0, nil
	o.Gauge("shard.live").Set(0)
	for i := w.Lo; i < w.Hi; i++ {
		ctx.jobOf[i] = -1
		if ctx.states[i] == fecPending {
			ctx.states[i] = fecUnresolved
		}
	}
	ctx.jobs = ctx.jobs[:0]
	ctx.protoJobs = 0
}

// sampleHeap folds the current live-heap size into the call's peak.
// ReadMemStats stops the world (~hundreds of microseconds), so callers
// sample only where the cost is already bought: once per shard, or once
// per call when forensics or a decision ledger is attached.
func (ctx *checkCtx) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if h := int64(ms.HeapAlloc); h > ctx.peakHeap {
		ctx.peakHeap = h
	}
}
