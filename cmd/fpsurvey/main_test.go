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
)

// TestMain runs fpsurvey's main instead of the tests in a child that
// fpsurvey started.
func TestMain(m *testing.M) {
	if os.Getenv("FPSURVEY_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// fpsurvey returns a command that re-executes the test binary as
// fpsurvey with args.
func fpsurvey(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FPSURVEY_TEST_MAIN=1", "FPSTUDY_RUNLOG=")
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
	var fpds bytes.Buffer
	pop := respondent.GenerateMainColumnar(7, 50, 1, nil, respondent.Instrumentation{})
	if err := pop.Cols.EncodeBinary(&fpds, colstore.IOOptions{}); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(t.TempDir(), "x.fpds")
	if err := os.WriteFile(data, fpds.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-text"}, {"-instrument"}, {"-csv", data}, {"slice", "/bg.formal_training/count", data},
	} {
		var stderr bytes.Buffer
		cmd := fpsurvey(args...)
		cmd.Stdout, cmd.Stderr = full, &stderr
		if err := cmd.Run(); cmd.ProcessState.ExitCode() != 1 || !strings.Contains(stderr.String(), "no space left on device") {
			t.Errorf("fpsurvey %v > /dev/full: %v, stderr %q; want exit 1 and the write error", args, err, stderr.String())
		}
	}
	out, err := fpsurvey("-instrument").Output()
	if err != nil || !bytes.HasSuffix(out, []byte("}\n")) {
		t.Errorf("fpsurvey -instrument: %v after %d bytes, want exit 0 and the whole instrument", err, len(out))
	}
}
