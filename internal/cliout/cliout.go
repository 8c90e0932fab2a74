// Package cliout is the commands' one policy for buffered standard
// output: a write that fails (a full disk, a closed pipe) ends the run
// with exit status 1 and the error on standard error, never a silent 0.
package cliout

import (
	"bufio"
	"fmt"
	"os"
)

// Flush flushes a command's buffered standard output. It returns code,
// or 1 after printing "<tool>: writing output: <error>" to standard
// error when the output could not be written.
func Flush(tool string, out *bufio.Writer, code int) int {
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, tool+": writing output:", err)
		return 1
	}
	return code
}
