package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/respondent"
	"fpstudy/internal/runlog"
)

// TestMain runs fpreport's main instead of the tests in a child that
// fpreport started.
func TestMain(m *testing.M) {
	if os.Getenv("FPREPORT_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// fpreport returns a command that re-executes the test binary as
// fpreport with args.
func fpreport(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FPREPORT_TEST_MAIN=1", "FPSTUDY_RUNLOG=")
	return cmd
}

// TestStdoutWriteError: output that cannot be written fails the run
// with exit status 1 and the error on standard error, rather than
// exiting 0 with nothing written; output that can be is written in full.
func TestStdoutWriteError(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full:", err)
	}
	defer full.Close()
	for _, args := range [][]string{
		{"-n", "199", "-all"},
		{"-n", "199", "-query", "/bg.formal_training/mean:core.score"},
	} {
		var stderr bytes.Buffer
		cmd := fpreport(args...)
		cmd.Stdout, cmd.Stderr = full, &stderr
		if err := cmd.Run(); cmd.ProcessState.ExitCode() != 1 || !strings.Contains(stderr.String(), "no space left on device") {
			t.Errorf("fpreport %v > /dev/full: %v, stderr %q; want exit 1 and the write error", args, err, stderr.String())
		}
	}
	out, err := fpreport("-n", "199", "-all").Output()
	if err != nil || !bytes.HasSuffix(out, []byte("\n")) || !bytes.Contains(out, []byte("Headline claims (Section IV)")) {
		t.Errorf("fpreport -all: %v after %d bytes, want exit 0 and every figure and claim", err, len(out))
	}
}

// TestSpanCoverage: root spans account for at least 95% of the wall
// time fpreport records, regenerating the cohort or reading it from an
// .fpds file.
func TestSpanCoverage(t *testing.T) {
	dir := t.TempDir()
	data, ledger := filepath.Join(dir, "x.fpds"), filepath.Join(dir, "l.jsonl")
	f, err := os.Create(data)
	if err != nil {
		t.Fatal(err)
	}
	cols := respondent.GenerateMainColumnar(42, 20000, 0, nil, respondent.Instrumentation{}).Cols
	if err := cols.EncodeBinary(f, colstore.IOOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-n", "20000", "-all", "-runlog", ledger},
		{"-data", data, "-all", "-runlog", ledger},
	} {
		if err := fpreport(args...).Run(); err != nil {
			t.Fatalf("fpreport %v: %v", args, err)
		}
	}
	recs, skipped, err := runlog.Read(ledger)
	if err != nil || skipped != 0 || len(recs) != 2 {
		t.Fatalf("ledger: %d records, %d skipped, %v; want 2, 0, nil", len(recs), skipped, err)
	}
	for _, rec := range recs {
		var root float64
		for _, s := range rec.Stages {
			if !strings.Contains(s.Name, "/") {
				root += s.Seconds
			}
		}
		if root < 0.95*rec.WallSeconds {
			t.Errorf("fpreport %v: root spans cover %.4fs of %.4fs wall (%.0f%%), want >= 95%%: %+v",
				rec.Args, root, rec.WallSeconds, 100*root/rec.WallSeconds, rec.Stages)
		}
	}
}
