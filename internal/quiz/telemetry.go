package quiz

import (
	"sync/atomic"
	"time"

	"fpstudy/internal/ieee754"
	"fpstudy/internal/telemetry"
)

// gradeBatchObserver holds the process-wide grade-batch latency
// callback: it fires once per 8192-respondent block that Grade grades,
// with the block's respondent count and wall duration. Same contract
// as the oracle observer — observation only, safe for concurrent use,
// one atomic load + branch when uninstalled.
var gradeBatchObserver atomic.Pointer[func(n int, d time.Duration)]

// SetGradeBatchObserver installs fn as the grade-batch latency
// observer for subsequent Grade calls; nil uninstalls. The intended fn
// feeds a telemetry.LatencyHist so per-block grading latency is
// quantile-tracked alongside the generation stages.
func SetGradeBatchObserver(fn func(n int, d time.Duration)) {
	if fn == nil {
		gradeBatchObserver.Store(nil)
		return
	}
	gradeBatchObserver.Store(&fn)
}

// oracleObserver holds the process-wide observer installed on every
// environment the quiz oracles evaluate under. An atomic pointer keeps
// oracleEnv race-free against a concurrent SetOracleObserver (the
// oracles themselves run once, under the answer-key sync.Once, but the
// installer may run from a different goroutine at startup).
var oracleObserver atomic.Pointer[func(ieee754.OpEvent)]

// SetOracleObserver installs fn as the observer for all subsequent quiz
// oracle evaluations; nil uninstalls. The intended fn is the aggregate
// exception bridge (monitor.CountingObserver feeding the telemetry
// registry), so a run can report how many Overflow / Underflow /
// Precision / Invalid / Denorm events its oracle evaluations produced.
//
// Observation only: an observer sees each completed operation and its
// raised flags but cannot change results, so the derived answer key —
// and everything downstream of it — is identical with or without an
// observer installed. fn must be safe for concurrent use; the counting
// bridge is (atomic increments only).
//
// Note the oracles cache their results (the answer key is derived once
// per process), so exception counts from this path appear once, at the
// first scoring or calibration, not per respondent.
func SetOracleObserver(fn func(ieee754.OpEvent)) {
	if fn == nil {
		oracleObserver.Store(nil)
		return
	}
	oracleObserver.Store(&fn)
}

// oracleOps / oracleExcs count softfloat operations and raised-flag
// events across all observed oracle evaluations, feeding the per-batch
// FP-exception deltas in grading trace events. They accumulate only
// while an observer or tracer is active (see oracleEnv), which keeps
// the common observer-free path on the softfloat's fast finish.
var oracleOps, oracleExcs atomic.Int64

// OracleTraceCounts returns the cumulative (operations, exception
// events) observed during traced/observed oracle evaluations. Callers
// diff two readings to attribute FP activity to a batch.
func OracleTraceCounts() (ops, exceptions int64) {
	return oracleOps.Load(), oracleExcs.Load()
}

// oracleEnv returns the default IEEE environment the quiz oracles
// evaluate under. When a process observer or a tracer is active it
// attaches a counting shim (operation + raised-flag totals for trace
// batches) that forwards to the user observer; otherwise it returns
// the bare environment so oracle evaluation keeps the observer-free
// fast path.
func oracleEnv() ieee754.Env {
	var e ieee754.Env
	user := oracleObserver.Load()
	if user == nil && telemetry.ActiveTracer() == nil {
		return e
	}
	e.Observer = func(ev ieee754.OpEvent) {
		oracleOps.Add(1)
		if ev.Raised != 0 {
			oracleExcs.Add(1)
		}
		if user != nil {
			(*user)(ev)
		}
	}
	return e
}
