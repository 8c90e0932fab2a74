// Command fpvm assembles and runs floating point VM programs under the
// exception monitor — the paper's proposed "spy on unmodified binaries"
// tool, for this repository's binaries.
//
// Usage:
//
//	fpvm -list
//	fpvm -run harmonic-sum -var n=1000
//	fpvm -run newton-sqrt -var x=2 -format binary16 -trace
//	fpvm -file prog.fpasm -var x=1
//	fpvm -dis newton-sqrt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fpstudy/internal/cliout"
	"fpstudy/internal/fpvm"
	"fpstudy/internal/ieee754"
	"fpstudy/internal/lint"
	"fpstudy/internal/monitor"
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
	os.Exit(cliout.Flush("fpvm", out, code))
}

func main() {
	vars := varFlags{}
	flag.Var(vars, "var", "bind a variable, e.g. -var n=100 (repeatable)")
	list := flag.Bool("list", false, "list built-in programs")
	run := flag.String("run", "", "run a built-in program by name")
	file := flag.String("file", "", "assemble and run a program file")
	dis := flag.String("dis", "", "disassemble a built-in program")
	formatName := flag.String("format", "binary64", "binary16, bfloat16, binary32, binary64")
	trace := flag.Bool("trace", false, "print the exception trace")
	flag.Parse()

	builtins := map[string]*fpvm.Program{}
	for _, p := range fpvm.SamplePrograms() {
		builtins[p.Name] = p
	}

	if *list {
		for _, p := range fpvm.SamplePrograms() {
			fmt.Fprintf(out, "%-16s %d instructions\n", p.Name, len(p.Code))
		}
		exit(0)
	}
	if *dis != "" {
		p, ok := builtins[*dis]
		if !ok {
			fatal(fmt.Errorf("unknown program %q", *dis))
		}
		fmt.Fprint(out, p.Disassemble())
		exit(0)
	}

	var prog *fpvm.Program
	switch {
	case *run != "":
		p, ok := builtins[*run]
		if !ok {
			fatal(fmt.Errorf("unknown program %q (try -list)", *run))
		}
		prog = p
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		p, err := fpvm.Assemble(*file, string(src))
		if err != nil {
			fatal(err)
		}
		prog = p
	default:
		flag.Usage()
		exit(2)
	}

	formats := map[string]ieee754.Format{
		"binary16": ieee754.Binary16, "bfloat16": ieee754.Bfloat16,
		"binary32": ieee754.Binary32, "binary64": ieee754.Binary64,
	}
	f, ok := formats[*formatName]
	if !ok {
		fatal(fmt.Errorf("unknown format %q", *formatName))
	}

	tr := monitor.NewTracer(0, 16)
	vm := &fpvm.VM{F: f, E: tr.Env(), StepLimit: 50_000_000}
	bound := map[string]uint64{}
	var scratch ieee754.Env
	for k, v := range vars {
		bound[k] = f.FromFloat64(&scratch, v)
	}
	res, err := vm.Run(prog, bound)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "program: %s (%s)\n", prog.Name, f.Name)
	fmt.Fprintf(out, "result:  %s\n", f.String(res))
	if findings := lint.CheckProgram(prog); len(findings) > 0 {
		fmt.Fprintln(out, "static analysis:")
		for _, fd := range findings {
			fmt.Fprintf(out, "  %s\n", fd)
		}
	}
	if *trace {
		fmt.Fprint(out, tr.TraceReport())
	} else {
		fmt.Fprint(out, tr.Report().String())
	}
	exit(0)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpvm:", err)
	exit(1)
}
