// Package audit combines every analysis tool in this repository into a
// single low-friction pass over one computation — the paper's closing
// action item ("tools ... with interfaces suitable for a non-CS
// community and a low barrier to use"). Given an expression and a set
// of input values, an audit runs:
//
//  1. static lint (hazard patterns),
//  2. monitored strict IEEE evaluation (exception flags, per-node
//     attribution),
//  3. a fast-math compliance check (would -ffast-math change this?),
//  4. interval analysis (rigorous error enclosure),
//  5. arbitrary-precision shadow execution (actual rounding error),
//  6. a precision-tuning probe (how low could this computation go?),
//
// and condenses everything into one suspicion verdict with the evidence
// attached.
package audit

import (
	"fmt"
	"math"
	"strings"

	"fpstudy/internal/expr"
	"fpstudy/internal/ieee754"
	"fpstudy/internal/interval"
	"fpstudy/internal/lint"
	"fpstudy/internal/monitor"
	"fpstudy/internal/mpfloat"
	"fpstudy/internal/optsim"
	"fpstudy/internal/tuner"
)

// Verdict grades the overall audit outcome.
type Verdict int

const (
	// Clean: no hazards, negligible error, optimization-stable.
	Clean Verdict = iota
	// Caution: hazards or measurable error that a reviewer should see.
	Caution
	// Alarm: exceptional values, severe error, or dangerous patterns.
	Alarm
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Clean:
		return "CLEAN"
	case Caution:
		return "CAUTION"
	case Alarm:
		return "ALARM"
	}
	return "unknown"
}

// Report is the combined audit result.
type Report struct {
	Expr string

	// Static analysis.
	Lint []lint.Finding

	// Strict IEEE evaluation.
	Result       uint64
	ResultString string
	Flags        ieee754.Flags
	Suspicious   []expr.Attribution // ops that raised watched flags

	// Fast-math stability.
	FastMathDiverges bool
	FastMathPasses   []string

	// Interval enclosure around the given inputs.
	IntervalRelWidth float64

	// Shadow execution.
	ShadowValue    mpfloat.Float
	ShadowRelErr   float64
	ShadowRelErrOK bool // false when the error is NaN (e.g. zero shadow)

	// Precision probe: fraction of operations that tolerate binary32
	// at 1e-6 relative error over a corpus around the inputs.
	DemotableOps int
	TotalOps     int

	Verdict Verdict
	Reasons []string
}

// watchedFlags are the conditions that mark an operation suspicious in
// the attribution listing.
const watchedFlags = ieee754.FlagInvalid | ieee754.FlagDivByZero |
	ieee754.FlagOverflow | ieee754.FlagUnderflow

// Run audits the expression at the given binary64-encoded inputs.
func Run(n expr.Node, vars map[string]uint64) Report {
	f := ieee754.Binary64
	rep := Report{Expr: n.String(), TotalOps: len(tuner.OpPaths(n))}

	// 1. Static lint.
	rep.Lint = lint.CheckExpr(n)

	// 2. Monitored strict evaluation with attribution.
	var fe ieee754.Env
	res, attrs := expr.EvalAttributed(f, &fe, n, vars)
	rep.Result = res
	rep.ResultString = f.String(res)
	rep.Flags = fe.Flags
	rep.Suspicious = expr.Suspicious(attrs, watchedFlags)

	// 3. Fast-math check at the audited inputs: would -ffast-math
	// change THIS result? (A corpus-wide check would flag nearly any
	// program via FTZ on subnormal inputs; the audit asks about the
	// computation at hand.)
	v := optsim.Check(f, n, optsim.FastMath(), []expr.Env{vars})
	rep.FastMathDiverges = !v.Compliant
	rep.FastMathPasses = v.PassesApplied

	// 4. Interval enclosure at the inputs.
	ia := interval.New(f)
	ivars := map[string]interval.Interval{}
	for k, b := range vars {
		ivars[k] = ia.Point(b)
	}
	rep.IntervalRelWidth = ia.RelativeWidth(ia.EvalExpr(n, ivars))

	// 5. Shadow execution at 200 bits.
	ctx := mpfloat.NewContext(200)
	sh := ctx.Shadow(f, n, vars)
	rep.ShadowValue = sh.ShadowValue
	if rel := sh.RelError.Float64(); !math.IsNaN(rel) {
		rep.ShadowRelErr = rel
		rep.ShadowRelErrOK = true
	}

	// 6. Precision probe.
	tcorpus := tuner.Corpus(n, 150, 2)
	tcorpus = append(tcorpus, vars)
	tres := tuner.Tune(n, tcorpus, 1e-6)
	rep.DemotableOps = tres.Demoted

	rep.judge()
	return rep
}

// judge condenses the evidence into a verdict.
func (r *Report) judge() {
	add := func(v Verdict, reason string, args ...interface{}) {
		if v > r.Verdict {
			r.Verdict = v
		}
		r.Reasons = append(r.Reasons, fmt.Sprintf(reason, args...))
	}
	f := ieee754.Binary64
	switch {
	case f.IsNaN(r.Result):
		add(Alarm, "the result is NaN (an invalid operation occurred)")
	case f.IsInf(r.Result, 0):
		add(Alarm, "the result is infinite (overflow or division by zero)")
	}
	if r.Flags.Has(ieee754.FlagInvalid) {
		add(Alarm, "an invalid operation occurred during evaluation")
	} else if r.Flags.Has(ieee754.FlagDivByZero) {
		add(Alarm, "a division by zero occurred during evaluation (may be hidden in the output)")
	} else if r.Flags.Has(ieee754.FlagOverflow) {
		add(Caution, "an intermediate value overflowed")
	}
	if r.Flags.Has(ieee754.FlagUnderflow) {
		add(Caution, "an intermediate value underflowed into the subnormal range")
	}
	if r.ShadowRelErrOK && r.ShadowRelErr > 1e-6 {
		add(Alarm, "the computed value is off by %.1e relative to exact arithmetic", r.ShadowRelErr)
	} else if r.ShadowRelErrOK && r.ShadowRelErr > 1e-12 {
		add(Caution, "measurable rounding error: %.1e relative", r.ShadowRelErr)
	}
	if r.IntervalRelWidth > 1e-6 {
		add(Caution, "the rigorous error enclosure is wide (relative width %.1e)", r.IntervalRelWidth)
	}
	if sev := lint.WorstSeverity(r.Lint); len(r.Lint) > 0 && sev >= lint.Danger {
		add(Alarm, "static analysis found dangerous patterns")
	} else if len(r.Lint) > 0 && sev >= lint.Warning {
		add(Caution, "static analysis found hazard patterns")
	}
	if r.FastMathDiverges {
		add(Caution, "-ffast-math would change this result (passes: %s)",
			strings.Join(r.FastMathPasses, ", "))
	}
	if len(r.Reasons) == 0 {
		r.Reasons = append(r.Reasons, "no hazards detected; result agrees with exact arithmetic")
	}
}

// String renders the full audit as a human-readable report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %s\n", r.Expr)
	fmt.Fprintf(&b, "verdict: %s\n", r.Verdict)
	for _, reason := range r.Reasons {
		fmt.Fprintf(&b, "  - %s\n", reason)
	}
	fmt.Fprintf(&b, "result: %s (flags: %s)\n", r.ResultString, r.Flags)
	if r.ShadowRelErrOK {
		fmt.Fprintf(&b, "exact (200-bit): %s  (rel err %.2e)\n",
			r.ShadowValue.DecimalString(25), r.ShadowRelErr)
	}
	fmt.Fprintf(&b, "interval rel width: %.2e\n", r.IntervalRelWidth)
	fmt.Fprintf(&b, "fast-math stable: %v\n", !r.FastMathDiverges)
	fmt.Fprintf(&b, "precision headroom: %d/%d ops tolerate binary32 at 1e-6\n",
		r.DemotableOps, r.TotalOps)
	if len(r.Suspicious) > 0 {
		fmt.Fprintf(&b, "suspicious operations:\n")
		for _, a := range r.Suspicious {
			path := a.Path
			if path == "" {
				path = "/"
			}
			fmt.Fprintf(&b, "  %s %s raised %s\n", path, a.Source, a.Raised)
		}
	}
	if len(r.Lint) > 0 {
		fmt.Fprintf(&b, "static findings:\n")
		for _, fd := range r.Lint {
			fmt.Fprintf(&b, "  %s\n", fd)
		}
	}
	return b.String()
}

// SuspicionScore maps the verdict to the suspicion quiz's 1-5 scale,
// aligning the tool's output with the paper's instrument.
func (r Report) SuspicionScore() int {
	switch r.Verdict {
	case Alarm:
		if ieee754.Binary64.IsNaN(r.Result) || r.Flags.Has(ieee754.FlagInvalid) {
			return monitor.Invalid.GroundTruthSuspicion() // 5
		}
		return monitor.Overflow.GroundTruthSuspicion() // 4
	case Caution:
		return 3
	}
	return 1
}
