package main

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs fpquiz's main instead of the tests in a child that
// fpquiz started.
func TestMain(m *testing.M) {
	if os.Getenv("FPQUIZ_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// fpquiz returns a command that re-executes the test binary as fpquiz
// with args.
func fpquiz(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FPQUIZ_TEST_MAIN=1")
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
	args := []string{"-answers"}
	var stderr bytes.Buffer
	cmd := fpquiz(args...)
	cmd.Stdout, cmd.Stderr = full, &stderr
	if err := cmd.Run(); cmd.ProcessState.ExitCode() != 1 || !strings.Contains(stderr.String(), "no space left on device") {
		t.Errorf("fpquiz %v > /dev/full: %v, stderr %q; want exit 1 and the write error", args, err, stderr.String())
	}
	out, err := fpquiz(args...).Output()
	if err != nil || !bytes.Contains(out, []byte("Optimization quiz answer key")) {
		t.Errorf("fpquiz %v: %v after %d bytes, want exit 0 and the whole output", args, err, len(out))
	}
}

// TestPromptBeforeRead: the interactive quiz shows each prompt before
// it blocks reading the answer, although standard output is buffered.
func TestPromptBeforeRead(t *testing.T) {
	cmd := fpquiz("-section", "core")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	prompted := make(chan bool, 1)
	go func() {
		r := bufio.NewReader(stdout)
		var seen []byte
		for !bytes.Contains(seen, []byte("[t/f/d] > ")) {
			b, err := r.ReadByte()
			if err != nil {
				prompted <- false
				return
			}
			seen = append(seen, b)
		}
		prompted <- true
		r.WriteTo(io.Discard) //nolint:errcheck // drain until exit
	}()
	select {
	case ok := <-prompted:
		if !ok {
			t.Error("fpquiz ended without a prompt")
		}
	case <-time.After(30 * time.Second):
		t.Error("no prompt within 30s while fpquiz waits for an answer")
	}
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		t.Errorf("fpquiz -section core with no answers: %v, want exit 0", err)
	}
}
