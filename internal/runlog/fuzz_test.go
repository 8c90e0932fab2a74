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
	rec = rec[:len(rec):len(rec)] // each append below copies, so no seed aliases another
	f.Add(append(rec, '\n'))
	f.Add(append(append(rec, "\r\n\n{\"schema\":"...), rec...))
	// Lines a ledger can hold besides well-formed records: a record cut
	// off by a crashed writer, other versions and shapes of JSON, and
	// lines from a different JSONL writer appended to the same file.
	f.Add(rec[:len(rec)/2])
	f.Add(append(append(append(rec, '\n'), rec...), rec[:len(rec)/3]...))
	f.Add([]byte(`{"schema":2,"tool":"fpreport","wall_seconds":0.5,"future":{"nested":[1,2,3]}}`))
	f.Add([]byte(`{"schema":"1","tool":7,"stages":{},"counters":[]}`))
	f.Add([]byte(`{"timestamp":"2026-08-06T10:03:39Z","seed":42,"host":{"goos":"linux","num_cpu":1},"runs":[{"n":199,"workers":1,"best_seconds":0.015}]}`))
	f.Add([]byte("{}\n{\"schema\":1}\n"))
	f.Add([]byte("not json\n\x00\xff\n"))
	f.Add([]byte(`{"schema":1,"tool":"fpgen","wall_seconds":1e400,"exit_status":-1}`))
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
