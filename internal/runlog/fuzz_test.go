package runlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
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

// FuzzRead feeds arbitrary ledger files to Read: it must never panic,
// and every non-blank line must come back as either a record or a
// skip, without error, since no fuzzed line reaches the 16 MB line
// limit.
func FuzzRead(f *testing.F) {
	rec, err := json.Marshal(Record{
		Schema: Schema, Tool: "fpgen", Args: []string{"-n", "199"},
		Timestamp: "2026-08-08T00:00:00Z", Host: CurrentHost(), WallSeconds: 1.5,
		Stages:   []Stage{{Name: "generate", Seconds: 1.2, SelfSeconds: 1.2, Items: 199}},
		Counters: map[string]int64{"pipeline.respondents": 398},
		Golden:   map[string]string{"dataset": "deadbeef"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(rec, '\n'))
	f.Add(append(append(rec, "\r\n\n{\"schema\":"...), rec...))
	if hist, err := os.ReadFile("../../BENCH_history.jsonl"); err == nil {
		f.Add(hist)
		for _, line := range bytes.Split(hist, []byte("\n")) {
			f.Add(line)
		}
	}
	f.Add([]byte("\n\r\n \nnull\n[]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 1<<24 {
			return
		}
		path := filepath.Join(t.TempDir(), "ledger.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, skipped, err := Read(path)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if got, want := len(recs)+skipped, nonBlankLines(data); got != want {
			t.Fatalf("%d records + %d skipped, want %d non-blank lines", len(recs), skipped, want)
		}
	})
}
