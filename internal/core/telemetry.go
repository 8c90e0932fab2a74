package core

import (
	"time"

	"fpstudy/internal/colstore"
	"fpstudy/internal/monitor"
	"fpstudy/internal/parallel"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/respondent"
	"fpstudy/internal/telemetry"
)

// Pipeline metric names (see the internal/telemetry package doc for
// the naming scheme).
const (
	// MetricRespondents counts generation progress: one increment per
	// profile drawn plus one per response sampled (2n per full
	// main-cohort run; n for the student cohort).
	MetricRespondents = "pipeline.respondents"
	// MetricRuns counts completed Study.Run executions.
	MetricRuns = "pipeline.runs"

	MetricForEachCalls = "parallel.foreach_calls"
	MetricItems        = "parallel.items"
	MetricBusyNS       = "parallel.busy_ns"
	MetricShards       = "parallel.shards"
	MetricPoolTasks    = "parallel.pool_tasks"
	MetricPoolBusyNS   = "parallel.pool_busy_ns"
	// MetricForEachBusyMS is a fixed-bucket histogram of per-call
	// summed worker busy time, in milliseconds.
	MetricForEachBusyMS = "parallel.foreach_busy_ms"

	MetricFPOps       = "fp.ops"
	MetricFPDivByZero = "fp.exceptions.divbyzero"

	// MetricHeapAlloc and MetricGCCount are gauges fed by
	// telemetry.StartMemSampler (live heap bytes; cumulative GC cycles),
	// so a long -n 1000000 run surfaces its memory behaviour on
	// /debug/vars while executing.
	MetricHeapAlloc = "mem.heap_alloc"
	MetricGCCount   = "mem.gc_count"
	// MetricInternedStrings gauges the size of the columnar string
	// arena after generation (zero for generated cohorts — every answer
	// is a code; nonzero only when converted row data carried free
	// text).
	MetricInternedStrings = "colstore.interned_strings"

	// MetricQueryRowsScanned counts respondent rows the query engine's
	// scan blocks examined; MetricQueryBlocksSkipped counts aggregation
	// passes elided because a block's selection came up empty. Their
	// ratio is the engine's filter-pruning win on a given workload.
	MetricQueryRowsScanned   = "query.rows_scanned"
	MetricQueryBlocksSkipped = "query.blocks_skipped"

	// MetricIOBytesWritten and MetricIOBytesRead count dataset bytes
	// moved by the serialization layer (colstore.IOOptions counters):
	// encode output and decode/load input respectively, either format.
	MetricIOBytesWritten = "io.bytes_written"
	MetricIOBytesRead    = "io.bytes_read"

	// Latency observatory: log-linear latency histograms
	// (telemetry.LatencyHist) over the block-level operations where the
	// pipeline's time actually goes. Each records per-operation wall
	// durations; snapshots carry p50/p90/p99/p999 (see DESIGN.md
	// "Latency observatory").
	LatencySampleBlock   = "latency.sample_block"         // one 4096-respondent response-sampling block
	LatencyCalibrate     = "latency.calibrate"            // one question-model bisection
	LatencyGradeBatch    = "latency.grade_batch"          // one 8192-respondent quiz.Grade block
	LatencyFPDSEncode    = "latency.fpds_encode_block"    // one FPDS column block encode
	LatencyFPDSDecode    = "latency.fpds_decode_block"    // one FPDS column block decode
	LatencyParallelShard = "latency.parallel_shard"       // one MapShards/SumShards shard
	LatencyWorkerBusy    = "latency.parallel_worker_busy" // one worker's busy time in a fan-out
	LatencyParallelWait  = "latency.parallel_wait"        // aggregate wait (workers*wall-busy) per fan-out
	LatencyQueryBlock    = "latency.query_block"          // one query-engine scan block (load+filter+key+aggregate)
)

// InstallPipelineTelemetry wires the process-wide instrumentation into
// reg and returns a Recorder to attach to Study.Telemetry:
//
//   - internal/parallel worker-pool hooks (fan-out calls, items, shard
//     counts, per-pool busy time);
//   - the aggregate FP-exception bridge on the quiz oracles, counting
//     Overflow / Underflow / Precision / Invalid / Denorm (plus
//     divide-by-zero and total observed ops) produced by oracle
//     evaluations.
//
// The hooks are global to the process (there is one worker pool layer
// and one oracle cache), so install once at startup. Everything
// observed is aggregate and atomic; nothing feeds back into the
// pipeline, so golden hashes are unchanged. UninstallPipelineTelemetry
// reverses the installation (used by tests and benchmarks).
func InstallPipelineTelemetry(reg *telemetry.Registry) *telemetry.Recorder {
	rec := telemetry.NewRecorder(reg)

	foreachCalls := reg.Counter(MetricForEachCalls)
	items := reg.Counter(MetricItems)
	busyNS := reg.Counter(MetricBusyNS)
	shards := reg.Counter(MetricShards)
	poolTasks := reg.Counter(MetricPoolTasks)
	poolBusyNS := reg.Counter(MetricPoolBusyNS)
	busyHist := reg.Histogram(MetricForEachBusyMS, []float64{0.1, 1, 10, 100, 1000, 10000})

	// Latency observatory: per-worker-sharded log-linear histograms on
	// the block-level operations. All Observe calls are plain atomic
	// adds; none of them feed back into the pipeline.
	latShard := reg.Latency(LatencyParallelShard)
	latWorker := reg.Latency(LatencyWorkerBusy)
	latWait := reg.Latency(LatencyParallelWait)
	parallel.SetHook(&parallel.Hook{
		ForEach: func(n, workers int, busy time.Duration) {
			foreachCalls.Inc()
			items.Add(int64(n))
			busyNS.Add(int64(busy))
			busyHist.Observe(float64(busy) / float64(time.Millisecond))
		},
		ForEachWall: func(n, workers int, wall, busy time.Duration) {
			wait := time.Duration(workers)*wall - busy
			if wait < 0 {
				wait = 0 // clock skew between per-worker and wall reads
			}
			latWait.Observe(wait)
		},
		Shards: func(n int) { shards.Add(int64(n)) },
		PoolTask: func(busy time.Duration) {
			poolTasks.Inc()
			poolBusyNS.Add(int64(busy))
		},
		// Trace lanes: worker w records on lane w+1 (lane 0 is the
		// pipeline control lane). Both callbacks reduce to one atomic
		// load when no tracer is installed.
		WorkerSpan: func(w int, busy time.Duration) {
			latWorker.ObserveShard(w, busy)
			telemetry.EmitSpan(telemetry.EvWorker, w+1, "worker",
				time.Now().Add(-busy), busy, int64(w), 0)
		},
		ShardSpan: func(w, shard, items int, d time.Duration) {
			latShard.ObserveShard(w, d)
			telemetry.EmitSpan(telemetry.EvShard, w+1, "shard",
				time.Now().Add(-d), d, int64(shard), int64(items))
		},
	})

	latSample := reg.Latency(LatencySampleBlock)
	latCalib := reg.Latency(LatencyCalibrate)
	respondent.SetLatencyHook(&respondent.LatencyHook{
		SampleBlock: func(shard, items int, d time.Duration) { latSample.ObserveShard(shard, d) },
		Calibrate:   func(question int, d time.Duration) { latCalib.ObserveShard(question, d) },
	})

	latGrade := reg.Latency(LatencyGradeBatch)
	quiz.SetGradeBatchObserver(func(n int, d time.Duration) { latGrade.Observe(d) })

	latEnc := reg.Latency(LatencyFPDSEncode)
	latDec := reg.Latency(LatencyFPDSDecode)
	colstore.SetLatencyHook(&colstore.LatencyHook{
		EncodeBlock: func(block, items int, d time.Duration) { latEnc.ObserveShard(block, d) },
		DecodeBlock: func(block, items int, d time.Duration) { latDec.ObserveShard(block, d) },
	})

	latQuery := reg.Latency(LatencyQueryBlock)
	query.SetLatencyHook(&query.LatencyHook{
		Block: func(block, items int, d time.Duration) { latQuery.ObserveShard(block, d) },
	})
	rowsScanned := reg.Counter(MetricQueryRowsScanned)
	blocksSkipped := reg.Counter(MetricQueryBlocksSkipped)
	query.SetWorkHook(&query.WorkHook{
		RowsScanned:  func(n int) { rowsScanned.Add(int64(n)) },
		BlockSkipped: func() { blocksSkipped.Inc() },
	})

	conds := map[monitor.Condition]monitor.EventCounter{}
	for _, c := range monitor.Conditions() {
		conds[c] = reg.Counter(c.MetricName())
	}
	quiz.SetOracleObserver(monitor.CountingObserver(
		reg.Counter(MetricFPOps), conds, reg.Counter(MetricFPDivByZero)))

	return rec
}

// UninstallPipelineTelemetry removes the process-wide hooks installed
// by InstallPipelineTelemetry, restoring the uninstrumented fast
// paths.
func UninstallPipelineTelemetry() {
	parallel.SetHook(nil)
	respondent.SetLatencyHook(nil)
	quiz.SetGradeBatchObserver(nil)
	colstore.SetLatencyHook(nil)
	query.SetLatencyHook(nil)
	query.SetWorkHook(nil)
	quiz.SetOracleObserver(nil)
}
