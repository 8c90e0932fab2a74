package benchcmp

import (
	"os"
	"path/filepath"
	"testing"
)

func TestDetectDriftFlagsOutlier(t *testing.T) {
	// A stable throughput series with one collapsed run.
	vals := []float64{100, 102, 98, 101, 99, 100, 60}
	s := DetectDrift(vals, DriftParams{})
	if s.NumDrift != 1 {
		t.Fatalf("NumDrift = %d, want 1 (%+v)", s.NumDrift, s.Points)
	}
	if !s.Points[6].Drift {
		t.Error("the 60 point was not flagged")
	}
	if s.Points[6].Deviation > -0.3 {
		t.Errorf("deviation = %.3f, want about -0.4", s.Points[6].Deviation)
	}
	if s.Median < 99 || s.Median > 101 {
		t.Errorf("median = %.1f, want ~100", s.Median)
	}
}

// TestDetectDriftRelativeFloor: a near-constant series (MAD ~ 0) must
// not flag timer jitter below the relative floor.
func TestDetectDriftRelativeFloor(t *testing.T) {
	vals := []float64{100, 100, 100, 100, 103} // 3% wiggle, MAD = 0
	s := DetectDrift(vals, DriftParams{})
	if s.NumDrift != 0 {
		t.Fatalf("NumDrift = %d, want 0 (3%% sits under the 10%% floor)", s.NumDrift)
	}
	// ...but a 15% move over a MAD-zero base does drift.
	s = DetectDrift([]float64{100, 100, 100, 100, 115}, DriftParams{})
	if s.NumDrift != 1 {
		t.Fatalf("NumDrift = %d, want 1", s.NumDrift)
	}
}

// TestDetectDriftShortSeries: fewer than 3 points never flag.
func TestDetectDriftShortSeries(t *testing.T) {
	for _, vals := range [][]float64{nil, {5}, {5, 500}} {
		if s := DetectDrift(vals, DriftParams{}); s.NumDrift != 0 {
			t.Errorf("%v: NumDrift = %d, want 0", vals, s.NumDrift)
		}
	}
}

// TestDetectDriftRobustToOutlier: the band itself must not be dragged
// by the outlier it is supposed to catch (median/MAD, not mean/σ).
func TestDetectDriftRobustToOutlier(t *testing.T) {
	vals := []float64{100, 101, 99, 100, 1000}
	s := DetectDrift(vals, DriftParams{})
	if s.Median > 110 {
		t.Errorf("median = %.0f dragged by outlier", s.Median)
	}
	if !s.Points[4].Drift {
		t.Error("outlier escaped the robust band")
	}
}

// TestReadHistoryLenient mirrors the runlog tolerance contract on the
// benchmark trajectory: mixed-era entries parse, junk lines and a
// truncated tail are skipped, never fatal.
func TestReadHistoryLenient(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
	content := // v3-era entry: runs only, no io/query/latency/serial_host
		`{"timestamp":"2026-01-01T00:00:00Z","appended":"2026-01-01T00:00:01Z","seed":42,"host":{"goos":"linux","goarch":"amd64","num_cpu":8,"gomaxprocs":8,"go_version":"go1.22.0"},"runs":[{"n":199,"workers":1,"best_seconds":0.02,"respondents_per_sec":9950,"allocs_per_respondent":31.5,"gc_pause_total_ms":0,"gc_count":0}]}` + "\n" +
			"\n" + // blank line
			// v5-era: serial_host + io section
			`{"timestamp":"2026-02-01T00:00:00Z","appended":"2026-02-01T00:00:01Z","seed":42,"host":{"goos":"linux","goarch":"amd64","num_cpu":1,"gomaxprocs":1,"go_version":"go1.24.0","serial_host":true},"runs":[{"n":199,"workers":1,"best_seconds":0.015,"respondents_per_sec":13266,"allocs_per_respondent":31.5,"gc_pause_total_ms":0,"gc_count":0}],"io":[{"n":199,"format":"binary","op":"encode","reps":3,"bytes":17000,"best_seconds":0.001,"mb_per_sec":16.2,"respondents_per_sec":199000}]}` + "\n" +
			`this line is corrupt {{{` + "\n" +
			// v7-era: latency quantiles + query section
			`{"timestamp":"2026-03-01T00:00:00Z","appended":"2026-03-01T00:00:01Z","seed":42,"host":{"goos":"linux","goarch":"amd64","num_cpu":1,"gomaxprocs":1,"go_version":"go1.24.0","serial_host":true},"runs":[{"n":199,"workers":1,"best_seconds":0.014,"respondents_per_sec":14214,"allocs_per_respondent":31.5,"gc_pause_total_ms":0,"gc_count":0,"latency":[{"stage":"grade_batch","count":64,"p50_ns":1000,"p90_ns":2000,"p99_ns":3000,"p999_ns":4000}]}],"query":[{"n":199,"mode":"mem","name":"grouped_mean","workers":1,"reps":3,"selected":199,"best_seconds":0.0001,"respondents_per_sec":1990000}]}` + "\n" +
			// v8-era: vcs stamp
			`{"timestamp":"2026-04-01T00:00:00Z","appended":"2026-04-01T00:00:01Z","seed":42,"host":{"goos":"linux","goarch":"amd64","num_cpu":1,"gomaxprocs":1,"go_version":"go1.24.0","serial_host":true},"vcs":{"revision":"abc123def456","modified":false},"runs":[{"n":199,"workers":1,"best_seconds":0.014,"respondents_per_sec":14214,"allocs_per_respondent":31.5,"gc_pause_total_ms":0,"gc_count":0}]}` + "\n" +
			`{"timestamp":"2026-05-01T00:` // truncated final line
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := ReadHistoryLenient(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("parsed %d entries, want 4", len(entries))
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2 (corrupt + truncated)", skipped)
	}
	if entries[0].Host.SerialHost || !entries[1].Host.SerialHost {
		t.Error("serial_host fidelity lost across schema eras")
	}
	if entries[0].VCS != nil {
		t.Error("v3 entry grew a VCS stamp from nowhere")
	}
	if entries[3].VCS == nil || entries[3].VCS.Revision != "abc123def456" {
		t.Errorf("v8 entry VCS = %+v", entries[3].VCS)
	}
	if len(entries[2].Runs[0].Latency) != 1 || entries[2].Runs[0].Latency[0].Stage != "grade_batch" {
		t.Errorf("v7 latency table lost: %+v", entries[2].Runs[0])
	}
	if len(entries[1].IO) != 1 || len(entries[2].Query) != 1 {
		t.Error("io/query sections lost")
	}

	// Strict ReadHistory must still fail on the same file (it is the
	// machine-written append path's own integrity check).
	if _, err := ReadHistory(path); err == nil {
		t.Error("strict ReadHistory accepted a corrupt file")
	}

	// Empty file: no entries, no error.
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, skipped, err = ReadHistoryLenient(empty)
	if err != nil || len(entries) != 0 || skipped != 0 {
		t.Errorf("empty file: entries=%d skipped=%d err=%v", len(entries), skipped, err)
	}
}
