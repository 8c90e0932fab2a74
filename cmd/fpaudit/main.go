// Command fpaudit runs the combined floating point audit — static
// lint, monitored evaluation with per-operation attribution, fast-math
// stability, interval enclosure, 200-bit shadow execution, and a
// precision probe — and prints one verdict with the evidence. The
// "low barrier to use" tool of the paper's conclusions.
//
// Usage:
//
//	fpaudit -var a=5 -var b=5 -var c=2 '1/(a - b) + c'
//	fpaudit -var a=1e16 -var b=1 '(a + b) - a'
//	fpaudit -var a=3 -var b=4 'sqrt(a*a + b*b)'
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fpstudy/internal/audit"
	"fpstudy/internal/cliout"
	"fpstudy/internal/expr"
	"fpstudy/internal/ieee754"
)

type varFlags map[string]float64

func (v varFlags) String() string { return fmt.Sprint(map[string]float64(v)) }
func (v varFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected name=value, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return err
	}
	v[name] = f
	return nil
}

// out buffers standard output; exit flushes it (see cliout).
var out = bufio.NewWriter(os.Stdout)

func exit(code int) {
	os.Exit(cliout.Flush("fpaudit", out, code))
}

func main() {
	vars := varFlags{}
	flag.Var(vars, "var", "bind a variable, e.g. -var a=1.5 (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fpaudit [-var name=value]... '<expression>'")
		exit(2)
	}
	n, err := expr.Parse(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpaudit:", err)
		exit(1)
	}
	var e ieee754.Env
	bound := map[string]uint64{}
	for k, v := range vars {
		bound[k] = ieee754.Binary64.FromFloat64(&e, v)
	}
	rep := audit.Run(n, bound)
	fmt.Fprint(out, rep.String())
	fmt.Fprintf(out, "suspicion (1-5): %d\n", rep.SuspicionScore())
	if rep.Verdict == audit.Alarm {
		exit(1)
	}
	exit(0)
}
