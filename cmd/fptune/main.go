// Command fptune auto-tunes the precision of a floating point
// expression: it finds the lowest per-operation format assignment that
// keeps the result within a relative error bound of the binary64
// reference over a random corpus — a miniature Precimonious, one of the
// precision-reduction systems the paper's introduction cites.
//
// Usage:
//
//	fptune 'sqrt(a*a + b*b)'
//	fptune -tol 1e-3 -corpus 500 '(a + b)*(a - b)'
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"fpstudy/internal/cliout"
	"fpstudy/internal/expr"
	"fpstudy/internal/tuner"
)

// out buffers standard output; exit flushes it (see cliout).
var out = bufio.NewWriter(os.Stdout)

func exit(code int) {
	os.Exit(cliout.Flush("fptune", out, code))
}

func main() {
	tol := flag.Float64("tol", 1e-6, "maximum relative error vs binary64")
	corpusSize := flag.Int("corpus", 300, "number of test inputs")
	seed := flag.Int64("seed", 42, "corpus seed")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fptune [-tol t] [-corpus n] '<expression>'")
		exit(2)
	}
	n, err := expr.Parse(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fptune:", err)
		exit(1)
	}
	corpus := tuner.Corpus(n, *corpusSize, *seed)
	res := tuner.Tune(n, corpus, *tol)

	fmt.Fprintf(out, "expression:   %s\n", n.String())
	fmt.Fprintf(out, "tolerance:    %g relative\n", *tol)
	fmt.Fprintf(out, "corpus:       %d inputs\n", len(corpus))
	fmt.Fprintf(out, "operations:   %d tunable\n", res.Ops)
	fmt.Fprintf(out, "demoted:      %d (saving %d significand bits total)\n", res.Demoted, res.BitsSaved)
	fmt.Fprintf(out, "worst error:  %.3g relative\n", res.MaxRelError)
	fmt.Fprintf(out, "trials:       %d\n", res.Trials)
	if len(res.Assignment) == 0 {
		fmt.Fprintln(out, "assignment:   everything stays binary64")
	} else {
		fmt.Fprintf(out, "assignment:   %s\n", res.Assignment)
	}
	exit(0)
}
