package core

import (
	"bytes"
	"strings"
	"testing"

	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/telemetry"
)

// TestQueryWorkCountersInPrometheusExposition wires the pipeline
// telemetry, runs one real query plus one whose filter selects
// nothing, and checks that query.rows_scanned / query.blocks_skipped
// land in the registry and render in the /metrics Prometheus text
// exposition under the fpstudy prefix.
func TestQueryWorkCountersInPrometheusExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := InstallPipelineTelemetry(reg)
	defer UninstallPipelineTelemetry()

	r := Study{Seed: 7, NMain: 300, NStudent: 20, Workers: 2,
		Telemetry: rec}.Run()
	src := r.MainSource()
	s := r.Main.Cols.Schema
	area := s.MustColumnIndex(quiz.BGArea)
	val := []query.Value{query.LikertValue{Col: s.MustColumnIndex("susp.invalid")}}

	if _, err := query.Run(src, query.Query{Values: val}, 2); err != nil {
		t.Fatalf("unfiltered query: %v", err)
	}
	res, err := query.Run(src, query.Query{
		Filter: []query.Predicate{query.I32Set{Col: area, Mask: 0}},
		Values: val,
	}, 2)
	if err != nil {
		t.Fatalf("all-false query: %v", err)
	}
	if res.TotalCount() != 0 || res.Sum[0][0] != 0 {
		t.Fatalf("skip path changed the result: %+v", res)
	}

	snap := reg.Snapshot()
	// Both queries scanned every row once: 2 passes over n=300.
	if got := snap.Counters[MetricQueryRowsScanned]; got != 600 {
		t.Errorf("%s = %d, want 600", MetricQueryRowsScanned, got)
	}
	// Only the all-false query's single block elided its aggregation.
	if got := snap.Counters[MetricQueryBlocksSkipped]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricQueryBlocksSkipped, got)
	}

	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, "fpstudy", snap); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE fpstudy_query_rows_scanned counter\nfpstudy_query_rows_scanned 600\n",
		"# TYPE fpstudy_query_blocks_skipped counter\nfpstudy_query_blocks_skipped 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
