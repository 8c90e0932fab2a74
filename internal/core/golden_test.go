package core

import (
	"crypto/sha256"
	"runtime"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/telemetry"
)

// raiseGOMAXPROCS lifts GOMAXPROCS to at least p for the duration of a
// test. parallel.Workers clamps explicit worker counts to GOMAXPROCS
// (the bench-host honesty fix), so on a small host the workers=4/16
// legs of the invariance gates would silently degrade to serial runs —
// raising the P count keeps the gates exercising real concurrency.
func raiseGOMAXPROCS(t *testing.T, p int) {
	t.Helper()
	if runtime.GOMAXPROCS(0) >= p {
		return
	}
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// goldenSnapshot runs an n-respondent study at the given worker count
// and hashes the encoded datasets plus all 22 figure tables. rec may be
// nil (telemetry off).
func goldenSnapshot(t *testing.T, n, workers int, rec *telemetry.Recorder) golden {
	t.Helper()
	s := Study{Seed: 42, NMain: n, NStudent: 52, Workers: workers, Telemetry: rec}
	r := s.Run()
	var g golden
	g.main = jsonHash(t, r.Main.Cols)
	g.students = jsonHash(t, r.StudentCols)
	for fig := 1; fig <= 22; fig++ {
		g.figures[fig-1] = sha256.Sum256([]byte(r.Figure(fig).String()))
	}
	return g
}

// jsonHash hashes the row-JSON encoding of a cohort. WriteJSON emits
// exactly survey.EncodeDataset's bytes for the row view (pinned by
// respondent.TestWriteJSONMatchesRowEncoding).
func jsonHash(t *testing.T, d *colstore.Dataset) [32]byte {
	t.Helper()
	h := sha256.New()
	if err := d.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// golden is the byte-level fingerprint of one full study run.
type golden struct {
	main     [32]byte
	students [32]byte
	figures  [22][32]byte
}

// TestGoldenParallelDeterminism is the determinism contract of the
// parallel pipeline: for a fixed seed, the generated datasets and every
// rendered figure must be byte-identical at any worker count. It runs a
// 5000-respondent study at workers 1, 4, and 16 and compares hashes of
// the encoded datasets plus all 22 figure tables.
func TestGoldenParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("5000-respondent study; skipped in -short mode")
	}
	const n = 5000
	raiseGOMAXPROCS(t, 16)

	want := goldenSnapshot(t, n, 1, nil)
	for _, workers := range []int{4, 16} {
		got := goldenSnapshot(t, n, workers, nil)
		if got.main != want.main {
			t.Errorf("workers=%d: main dataset differs from sequential run", workers)
		}
		if got.students != want.students {
			t.Errorf("workers=%d: student dataset differs from sequential run", workers)
		}
		for fig := 1; fig <= 22; fig++ {
			if got.figures[fig-1] != want.figures[fig-1] {
				t.Errorf("workers=%d: figure %d differs from sequential run", workers, fig)
			}
		}
	}
}

// TestGoldenTelemetryInvariance is the observability half of the
// determinism contract: installing the full telemetry stack (metrics
// registry, span recorder, parallel hooks, FP-exception bridge) must
// not change a single output byte at any worker count. It compares the
// dataset and figure hashes of instrumented runs at workers 1, 4, and
// 16 against an uninstrumented baseline.
func TestGoldenTelemetryInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple 2000-respondent studies; skipped in -short mode")
	}
	const n = 2000
	raiseGOMAXPROCS(t, 16)

	want := goldenSnapshot(t, n, 1, nil)

	reg := telemetry.NewRegistry()
	rec := InstallPipelineTelemetry(reg)
	defer UninstallPipelineTelemetry()

	for _, workers := range []int{1, 4, 16} {
		got := goldenSnapshot(t, n, workers, rec)
		if got.main != want.main {
			t.Errorf("workers=%d: telemetry changed the main dataset", workers)
		}
		if got.students != want.students {
			t.Errorf("workers=%d: telemetry changed the student dataset", workers)
		}
		for fig := 1; fig <= 22; fig++ {
			if got.figures[fig-1] != want.figures[fig-1] {
				t.Errorf("workers=%d: telemetry changed figure %d", workers, fig)
			}
		}
	}

	// Sanity-check that the instrumentation actually observed the runs
	// (otherwise this test would pass vacuously).
	snap := reg.Snapshot()
	if snap.Counters[MetricRespondents] == 0 {
		t.Error("telemetry was installed but observed no respondents")
	}
	// fp.ops is deliberately not asserted: the oracle answer key is
	// cached once per process, so whether this test's runs evaluate
	// oracles depends on test order. The FP bridge has its own tests in
	// internal/monitor and internal/quiz.
	if len(rec.Spans()) == 0 {
		t.Error("telemetry was installed but recorded no spans")
	}
}

// TestGoldenTraceInvariance extends the invariance contract to the
// tracing layer: a run with the tracer installed (on top of the full
// telemetry stack) must produce byte-identical datasets and figures at
// any worker count, and the tracer must actually have captured stage,
// worker, and shard events (so the test cannot pass vacuously).
func TestGoldenTraceInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple 2000-respondent studies; skipped in -short mode")
	}
	const n = 2000
	raiseGOMAXPROCS(t, 16)

	want := goldenSnapshot(t, n, 1, nil)

	reg := telemetry.NewRegistry()
	rec := InstallPipelineTelemetry(reg)
	defer UninstallPipelineTelemetry()
	tracer := telemetry.NewTracer(8, 1<<12)
	telemetry.SetTracer(tracer)
	defer telemetry.SetTracer(nil)

	for _, workers := range []int{1, 4, 16} {
		got := goldenSnapshot(t, n, workers, rec)
		if got.main != want.main {
			t.Errorf("workers=%d: tracing changed the main dataset", workers)
		}
		if got.students != want.students {
			t.Errorf("workers=%d: tracing changed the student dataset", workers)
		}
		for fig := 1; fig <= 22; fig++ {
			if got.figures[fig-1] != want.figures[fig-1] {
				t.Errorf("workers=%d: tracing changed figure %d", workers, fig)
			}
		}
	}

	kinds := map[telemetry.EventKind]int{}
	for _, ev := range tracer.Events() {
		kinds[ev.Kind]++
	}
	if kinds[telemetry.EvStage] == 0 {
		t.Error("tracer captured no stage events")
	}
	if kinds[telemetry.EvWorker] == 0 {
		t.Error("tracer captured no worker events")
	}
	if kinds[telemetry.EvShard] == 0 {
		t.Error("tracer captured no shard events")
	}
	if kinds[telemetry.EvBatch] == 0 {
		t.Error("tracer captured no grading batch events")
	}
}

// TestGoldenLatencyInvariance is the latency-observatory half of the
// invariance contract: with the full telemetry stack installed — which
// now includes the sharded latency histograms on sampling, calibration,
// grading, codec, and parallel hooks — every output byte must match an
// uninstrumented baseline at workers 1, 4, and 16. The latency hooks
// only read clocks and add to atomics; this test is the proof that they
// cannot perturb sampling order, shard boundaries, or grading.
func TestGoldenLatencyInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple 2000-respondent studies; skipped in -short mode")
	}
	const n = 2000
	raiseGOMAXPROCS(t, 16)

	want := goldenSnapshot(t, n, 1, nil)

	reg := telemetry.NewRegistry()
	rec := InstallPipelineTelemetry(reg)
	defer UninstallPipelineTelemetry()

	for _, workers := range []int{1, 4, 16} {
		got := goldenSnapshot(t, n, workers, rec)
		if got.main != want.main {
			t.Errorf("workers=%d: latency observation changed the main dataset", workers)
		}
		if got.students != want.students {
			t.Errorf("workers=%d: latency observation changed the student dataset", workers)
		}
		for fig := 1; fig <= 22; fig++ {
			if got.figures[fig-1] != want.figures[fig-1] {
				t.Errorf("workers=%d: latency observation changed figure %d", workers, fig)
			}
		}
	}

	// Non-vacuousness: the latency histograms must actually have
	// observed the runs, with sane quantile ordering.
	snap := reg.Snapshot()
	for _, name := range []string{
		LatencySampleBlock, LatencyCalibrate, LatencyGradeBatch,
		LatencyParallelShard, LatencyWorkerBusy, LatencyParallelWait,
	} {
		ls, ok := snap.Latencies[name]
		if !ok || ls.Count == 0 {
			t.Errorf("%s: no latency observations recorded", name)
			continue
		}
		if ls.P50NS > ls.P99NS || ls.P99NS > ls.P999NS {
			t.Errorf("%s: quantiles out of order: p50=%.0f p99=%.0f p999=%.0f",
				name, ls.P50NS, ls.P99NS, ls.P999NS)
		}
	}
}
