// Command fpexpr evaluates a floating point expression on the softfloat
// substrate and reports everything the paper says developers rarely
// see: the exact bit pattern, the exception flags raised, the result in
// every format, the effect of rounding modes and fast-math, and the
// arbitrary-precision shadow value.
//
// Usage:
//
//	fpexpr '0.1 + 0.2'
//	fpexpr -var a=1e16 -var b=1 '(a + b) - a'
//	fpexpr -format binary16 'sqrt(2)'
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fpstudy/internal/cliout"
	"fpstudy/internal/expr"
	"fpstudy/internal/ieee754"
	"fpstudy/internal/lint"
	"fpstudy/internal/mpfloat"
	"fpstudy/internal/optsim"
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
	os.Exit(cliout.Flush("fpexpr", out, code))
}

func main() {
	vars := varFlags{}
	flag.Var(vars, "var", "bind a variable, e.g. -var a=1.5 (repeatable)")
	formatName := flag.String("format", "binary64", "binary16, bfloat16, binary32, or binary64")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fpexpr [-var name=value]... [-format f] '<expression>'")
		exit(2)
	}
	src := flag.Arg(0)
	n, err := expr.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpexpr:", err)
		exit(1)
	}

	formats := map[string]ieee754.Format{
		"binary16": ieee754.Binary16,
		"bfloat16": ieee754.Bfloat16,
		"binary32": ieee754.Binary32,
		"binary64": ieee754.Binary64,
	}
	f, ok := formats[*formatName]
	if !ok {
		fmt.Fprintln(os.Stderr, "fpexpr: unknown format", *formatName)
		exit(2)
	}

	bind := func(g ieee754.Format) expr.Env {
		env := expr.Env{}
		var scratch ieee754.Env
		for k, v := range vars {
			env[k] = g.FromFloat64(&scratch, v)
		}
		return env
	}

	// Primary evaluation.
	var fe ieee754.Env
	res := expr.Eval(f, &fe, n, bind(f))
	fmt.Fprintf(out, "expression: %s\n", n.String())
	fmt.Fprintf(out, "format:     %s\n", f.Name)
	fmt.Fprintf(out, "value:      %s\n", f.String(res))
	fmt.Fprintf(out, "exact form: %s\n", f.Hex(res))
	fmt.Fprintf(out, "encoding:   %s\n", f.BitString(res))
	fmt.Fprintf(out, "flags:      %s\n", fe.Flags)

	// Every format side by side.
	fmt.Fprintln(out, "\nacross formats:")
	for _, name := range []string{"binary16", "bfloat16", "binary32", "binary64"} {
		g := formats[name]
		var ge ieee754.Env
		r := expr.Eval(g, &ge, n, bind(g))
		fmt.Fprintf(out, "  %-9s %-24s flags: %s\n", g.Name, g.String(r), ge.Flags)
	}

	// Rounding modes.
	fmt.Fprintln(out, "\nacross rounding modes:")
	for _, m := range []ieee754.RoundingMode{
		ieee754.NearestEven, ieee754.NearestAway, ieee754.TowardZero,
		ieee754.TowardPositive, ieee754.TowardNegative,
	} {
		ge := ieee754.Env{Rounding: m}
		r := expr.Eval(f, &ge, n, bind(f))
		fmt.Fprintf(out, "  %-22s %s\n", m, f.Hex(r))
	}

	// Fast-math.
	cfg := optsim.FastMath()
	opt, passes := cfg.Optimize(n)
	oe := cfg.EnvFor()
	optRes := expr.Eval(f, oe, opt, bind(f))
	fmt.Fprintln(out, "\nunder -ffast-math:")
	fmt.Fprintf(out, "  rewritten:  %s (passes: %v)\n", opt.String(), passes)
	fmt.Fprintf(out, "  value:      %s", f.String(optRes))
	if optRes != res && !(f.IsNaN(optRes) && f.IsNaN(res)) {
		fmt.Fprintf(out, "   <-- DIFFERS from strict IEEE")
	}
	fmt.Fprintln(out)

	// Static hazards.
	if findings := lint.CheckExpr(n); len(findings) > 0 {
		fmt.Fprintln(out, "\nstatic analysis:")
		for _, fd := range findings {
			fmt.Fprintf(out, "  %s\n", fd)
		}
	}

	// Arbitrary-precision shadow.
	ctx := mpfloat.NewContext(200)
	vm := map[string]mpfloat.Float{}
	for k, v := range vars {
		vm[k] = mpfloat.FromFloat64(v)
	}
	shadow := ctx.EvalExpr(n, vm)
	fmt.Fprintln(out, "\n200-bit shadow:")
	fmt.Fprintf(out, "  value:      %s\n", shadow.DecimalString(40))
	exit(0)
}
