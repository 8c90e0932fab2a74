package benchcmp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fpstudy/internal/runlog"
)

// nonBlankLines counts the lines a JSONL reader sees as records or
// skips: lines as bufio.ScanLines splits them (a trailing CR
// stripped), empty ones excluded.
func nonBlankLines(data []byte) int {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, len(data)+1)
	n := 0
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			n++
		}
	}
	return n
}

// FuzzReadHistoryLenient feeds arbitrary history files to
// ReadHistoryLenient: it must never panic, and every non-blank line
// must come back as either an entry or a skip, without error, since no
// fuzzed line reaches the 16 MB line limit.
func FuzzReadHistoryLenient(f *testing.F) {
	hist, err := os.ReadFile("../../BENCH_history.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hist)
	for _, line := range bytes.Split(hist, []byte("\n")) {
		f.Add(line)
	}
	ledger, err := json.Marshal(runlog.Record{Schema: runlog.Schema, Tool: "fpbench",
		Timestamp: "2026-08-08T00:00:00Z", WallSeconds: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ledger)
	f.Add(bytes.ReplaceAll(hist, []byte("\n"), []byte("\r\n")))
	f.Add([]byte("\n\r\n \nnull\n{\"runs\":[{\"n\":\"x\"}]}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 1<<24 {
			return
		}
		path := filepath.Join(t.TempDir(), "BENCH_history.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, skipped, err := ReadHistoryLenient(path)
		if err != nil {
			t.Fatalf("ReadHistoryLenient: %v", err)
		}
		if got, want := len(entries)+skipped, nonBlankLines(data); got != want {
			t.Fatalf("%d entries + %d skipped, want %d non-blank lines", len(entries), skipped, want)
		}
	})
}
