// Command fpmonitor runs numerical kernels on the softfloat substrate
// under the floating point exception monitor — the runtime tool the
// paper's conclusions propose — and prints an audit of which
// exceptional conditions occurred, how often, and how suspicious a
// well-calibrated developer should be of the output.
//
// Usage:
//
//	fpmonitor -list                 # list available kernels
//	fpmonitor -kernel lorenz        # audit one kernel
//	fpmonitor                       # audit the whole suite
//	fpmonitor -format binary32      # run in another format
//	fpmonitor -ftz                  # non-standard flush-to-zero mode
//	fpmonitor -telemetry 127.0.0.1:6060  # live per-kernel spans on /debug/vars
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fpstudy/internal/cliout"
	"fpstudy/internal/ieee754"
	"fpstudy/internal/kernels"
	"fpstudy/internal/monitor"
	"fpstudy/internal/telemetry"
)

// out buffers standard output; exit flushes it (see cliout).
var out = bufio.NewWriter(os.Stdout)

func exit(code int) {
	os.Exit(cliout.Flush("fpmonitor", out, code))
}

func main() {
	list := flag.Bool("list", false, "list kernels and exit")
	name := flag.String("kernel", "", "run only the named kernel")
	formatName := flag.String("format", "binary64", "binary16, binary32, or binary64")
	ftz := flag.Bool("ftz", false, "enable flush-to-zero/denormals-are-zero (non-standard)")
	telemetryAddr := flag.String("telemetry", "", "serve live expvar+pprof introspection on this address (e.g. 127.0.0.1:6060)")
	flag.Parse()

	suite := kernels.All()
	if *list {
		for _, k := range suite {
			fmt.Fprintf(out, "%-18s %s\n", k.Name, k.Description)
		}
		exit(0)
	}

	// The kernel audits are observable like the pipeline tools: one
	// span per kernel on /debug/vars while the suite runs, plus
	// per-kernel exception-rate gauges on the shared registry so the
	// audit outcome is scrapeable from /metrics. The nil Recorder and
	// nil registry make all of this a no-op when -telemetry is unset.
	var rec *telemetry.Recorder
	var reg *telemetry.Registry
	if *telemetryAddr != "" {
		reg = telemetry.NewRegistry()
		rec = telemetry.NewRecorder(reg)
		rec.PublishExpvar("fpstudy")
		srv, err := telemetry.Serve(*telemetryAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpmonitor:", err)
			exit(1)
		}
		// Graceful shutdown releases the port at exit but lets an
		// in-flight scrape finish (bounded).
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // best-effort at exit
		}()
		fmt.Fprintf(os.Stderr, "fpmonitor: telemetry on http://%s/debug/vars (pprof under /debug/pprof/)\n", srv.Addr())
	}

	var f ieee754.Format
	switch *formatName {
	case "binary16":
		f = ieee754.Binary16
	case "binary32":
		f = ieee754.Binary32
	case "binary64":
		f = ieee754.Binary64
	default:
		fmt.Fprintln(os.Stderr, "fpmonitor: unknown format", *formatName)
		exit(2)
	}

	ran := 0
	for _, k := range suite {
		if *name != "" && k.Name != *name {
			continue
		}
		ran++
		span := rec.StartSpan(k.Name)
		m := monitor.NewWithEnv(ieee754.Env{FTZ: *ftz, DAZ: *ftz})
		res := k.Run(m.Env(), f)
		rep := m.Report()
		span.AddItems(int64(rep.TotalOps))
		span.End()
		publishKernelRates(reg, k.Name, rep)
		fmt.Fprintf(out, "=== %s (%s) ===\n", k.Name, k.Description)
		fmt.Fprintf(out, "result: %s\n", f.String(res))
		fmt.Fprint(out, rep.String())
		fmt.Fprintln(out)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "fpmonitor: no kernel named %q (try -list)\n", *name)
		exit(2)
	}
	// A plain return, not exit, so the deferred telemetry shutdown runs.
	if cliout.Flush("fpmonitor", out, 0) != 0 {
		os.Exit(1)
	}
}

// publishKernelRates exposes one kernel's audit as gauges on the
// shared registry: per-condition exception rates (events per monitored
// operation) plus the divide-by-zero rate and the ground-truth
// suspicion score, under "kernel.<name>.". With -telemetry set they
// appear on /debug/vars and in Prometheus form on /metrics
// (fpstudy_kernel_lorenz_exceptions_overflow_rate ...); with a nil
// registry every Gauge call is a no-op.
func publishKernelRates(reg *telemetry.Registry, kernel string, rep monitor.Report) {
	rate := func(count uint64) float64 {
		if rep.TotalOps == 0 {
			return 0
		}
		return float64(count) / float64(rep.TotalOps)
	}
	prefix := "kernel." + kernel + "."
	for _, e := range rep.Entries {
		metric := strings.TrimPrefix(e.Condition.MetricName(), "fp.")
		reg.Gauge(prefix + metric + "_rate").Set(rate(e.Count))
	}
	reg.Gauge(prefix + "exceptions.divbyzero_rate").Set(rate(rep.DivByZero))
	reg.Gauge(prefix + "ops").Set(float64(rep.TotalOps))
	reg.Gauge(prefix + "suspicion").Set(float64(rep.SuspicionScore()))
}
