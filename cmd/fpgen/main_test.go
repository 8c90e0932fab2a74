package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fpstudy/internal/runlog"
)

// TestMain runs fpgen's main instead of the tests in a child that
// fpgen started.
func TestMain(m *testing.M) {
	if os.Getenv("FPGEN_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// fpgen returns a command that re-executes the test binary as fpgen
// with args.
func fpgen(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FPGEN_TEST_MAIN=1", "FPSTUDY_RUNLOG=")
	return cmd
}

// readOne reads a ledger that must hold exactly one record.
func readOne(t *testing.T, path string) runlog.Record {
	t.Helper()
	recs, skipped, err := runlog.Read(path)
	if err != nil || skipped != 0 || len(recs) != 1 {
		t.Fatalf("runlog.Read(%s) = %d records, %d skipped, %v; want 1, 0, nil", path, len(recs), skipped, err)
	}
	return recs[0]
}

// TestSidecarIsLedgerRecord: the dataset sidecar is the run's ledger
// record, byte for byte, and carries the dataset's provenance: its
// sha256, the defaulted flags, the host and the generate stage. A
// rerun replaces the sidecar rather than appending to it.
func TestSidecarIsLedgerRecord(t *testing.T) {
	dir := t.TempDir()
	data, sidecar, ledger := filepath.Join(dir, "x.fpds"), filepath.Join(dir, "x.fpds.manifest.json"), filepath.Join(dir, "l.jsonl")
	if out, err := fpgen("-n", "199", "-o", data, "-runlog", ledger).CombinedOutput(); err != nil {
		t.Fatalf("fpgen: %v\n%s", err, out)
	}
	rec := readOne(t, sidecar)
	side, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	line, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(side, line) {
		t.Errorf("sidecar differs from the ledger line:\n%s\n%s", side, line)
	}
	dataset, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(dataset)
	if got := rec.Golden["dataset_sha256"]; got != hex.EncodeToString(sum[:]) {
		t.Errorf("golden.dataset_sha256 = %q, want the sha256 of %s", got, data)
	}
	if rec.Schema != runlog.Schema || rec.Tool != "fpgen" || rec.ExitStatus != 0 {
		t.Errorf("record header: schema %d tool %q exit %d", rec.Schema, rec.Tool, rec.ExitStatus)
	}
	if rec.Flags["seed"] != "42" || rec.Flags["n"] != "199" {
		t.Errorf("flags = %v, want seed=42 and n=199", rec.Flags)
	}
	if rec.Host.NumCPU != runtime.NumCPU() || rec.Host.SerialHost != (runtime.GOMAXPROCS(0) == 1) {
		t.Errorf("host = %+v, want num_cpu %d, serial_host %v", rec.Host, runtime.NumCPU(), runtime.GOMAXPROCS(0) == 1)
	}
	generated := false
	for _, s := range rec.Stages {
		generated = generated || s.Name == "generate" && s.Items == 199
	}
	if !generated {
		t.Errorf("stages = %+v, want generate with items 199", rec.Stages)
	}

	if out, err := fpgen("-n", "199", "-o", data).CombinedOutput(); err != nil {
		t.Fatalf("fpgen rerun: %v\n%s", err, out)
	}
	readOne(t, sidecar)
}

// TestBadFormatTouchesNothing: an unknown -format fails before any
// work, leaving an existing dataset and its sidecar as they were.
func TestBadFormatTouchesNothing(t *testing.T) {
	dir := t.TempDir()
	data, sidecar := filepath.Join(dir, "y.fpds"), filepath.Join(dir, "y.fpds.manifest.json")
	for _, p := range []string{data, sidecar} {
		if err := os.WriteFile(p, []byte("keep "+p), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stderr bytes.Buffer
	cmd := fpgen("-n", "199", "-format", "bogus", "-o", data)
	cmd.Stderr = &stderr
	if err := cmd.Run(); cmd.ProcessState.ExitCode() != 1 || !strings.Contains(stderr.String(), "unknown -format") {
		t.Errorf("fpgen -format bogus: %v, stderr %q; want exit 1 and the format error", err, stderr.String())
	}
	for _, p := range []string{data, sidecar} {
		if got, err := os.ReadFile(p); err != nil || string(got) != "keep "+p {
			t.Errorf("%s after a bad -format: %q, %v; want it untouched", p, got, err)
		}
	}
}

// TestSpanCoverage: root spans account for at least 95% of fpgen's
// recorded wall time.
func TestSpanCoverage(t *testing.T) {
	dir := t.TempDir()
	if out, err := fpgen("-n", "20000", "-o", filepath.Join(dir, "x.fpds")).CombinedOutput(); err != nil {
		t.Fatalf("fpgen: %v\n%s", err, out)
	}
	rec := readOne(t, filepath.Join(dir, "x.fpds.manifest.json"))
	var root float64
	for _, s := range rec.Stages {
		if !strings.Contains(s.Name, "/") {
			root += s.Seconds
		}
	}
	if root < 0.95*rec.WallSeconds {
		t.Errorf("root spans cover %.4fs of %.4fs wall (%.0f%%), want >= 95%%: %+v",
			root, rec.WallSeconds, 100*root/rec.WallSeconds, rec.Stages)
	}
}
