package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs fpaudit's main instead of the tests in a child that
// fpaudit started.
func TestMain(m *testing.M) {
	if os.Getenv("FPAUDIT_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// fpaudit returns a command that re-executes the test binary as fpaudit
// with args.
func fpaudit(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FPAUDIT_TEST_MAIN=1")
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
	args := []string{"-var", "a=1", "-var", "b=2", "a+b"}
	var stderr bytes.Buffer
	cmd := fpaudit(args...)
	cmd.Stdout, cmd.Stderr = full, &stderr
	if err := cmd.Run(); cmd.ProcessState.ExitCode() != 1 || !strings.Contains(stderr.String(), "no space left on device") {
		t.Errorf("fpaudit %v > /dev/full: %v, stderr %q; want exit 1 and the write error", args, err, stderr.String())
	}
	out, err := fpaudit(args...).Output()
	if err != nil || !bytes.Contains(out, []byte("suspicion (1-5):")) {
		t.Errorf("fpaudit %v: %v after %d bytes, want exit 0 and the whole output", args, err, len(out))
	}
}
