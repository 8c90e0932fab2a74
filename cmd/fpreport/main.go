// Command fpreport regenerates the paper's figures and headline claims
// from a reproduction study run.
//
// Usage:
//
//	fpreport -all                # print every figure (1-22) and the claims
//	fpreport -fig 14             # one figure
//	fpreport -claims             # headline claims only
//	fpreport -csv -fig 22        # figure as CSV
//	fpreport -n 1000 -seed 7     # larger cohort / different seed
//	fpreport -data big.fpds -all # report off a serialized dataset
//
// Ad-hoc slicing runs a query expression through the vectorized
// engine instead of a canned figure:
//
//	fpreport -query '/bg.formal_training/mean:core.score'
//	fpreport -data big.fpds -query 'susp.invalid>=4/bg.contrib_size/count'
//
// With -data on an .fpds shard the query streams block-at-a-time off
// disk (memory bounded by block size x workers, not n); row JSON and
// generated cohorts run in memory. See internal/query for the
// filter/groupby/agg grammar.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"fpstudy/internal/cliout"
	"fpstudy/internal/colstore"
	"fpstudy/internal/core"
	"fpstudy/internal/paperdata"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
	"fpstudy/internal/runlog"
	"fpstudy/internal/telemetry"
)

// out buffers standard output; finish flushes it (see cliout).
var out = bufio.NewWriter(os.Stdout)

// ledger is this invocation's run-ledger record (nil when -runlog is
// unset); every termination goes through finish so the appended record
// carries the real exit status.
var ledger *runlog.Run

// rendering is the root span over formatting and the stdout flush; nil
// until the report starts rendering, and ended by finish.
var rendering *telemetry.Span

// finish flushes standard output and records the run in the ledger. It
// returns code, or 1 when the output could not be written.
func finish(code int) int {
	code = cliout.Flush("fpreport", out, code)
	rendering.End()
	ledger.Finish(code)
	return code
}

func exit(code int) {
	os.Exit(finish(code))
}

func main() {
	all := flag.Bool("all", false, "print all figures and claims")
	fig := flag.Int("fig", 0, "print one figure by number (1-22)")
	claims := flag.Bool("claims", false, "print headline claims")
	calibration := flag.Bool("calibration", false, "print the chi-square calibration report")
	association := flag.Bool("association", false, "print factor-association effect sizes")
	items := flag.Bool("items", false, "print the item analysis of the core quiz")
	intervention := flag.Bool("intervention", false, "print the training-intervention policy experiment")
	confidence := flag.Bool("confidence", false, "print the confidence-vs-accuracy analysis")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	markdown := flag.Bool("markdown", false, "emit Markdown instead of an aligned table")
	n := flag.Int("n", paperdata.NMain, "main cohort size")
	nStudents := flag.Int("nstudents", paperdata.NStudent, "student cohort size")
	seed := flag.Int64("seed", 42, "study seed")
	queryExpr := flag.String("query", "", "run a filter/groupby/agg query expression instead of a figure (streams .fpds -data shards out of core)")
	data := flag.String("data", "", "run the report off a main-cohort dataset file (row JSON or .fpds binary) instead of regenerating")
	studentData := flag.String("studentdata", "", "student-cohort dataset file (with -data; default regenerates students from -seed/-nstudents)")
	workers := flag.Int("workers", 0, "worker goroutines (<=0 means GOMAXPROCS); never affects the data")
	telemetryAddr := flag.String("telemetry", "", "serve live expvar+pprof introspection on this address (e.g. 127.0.0.1:6060)")
	runlogPath := flag.String("runlog", os.Getenv("FPSTUDY_RUNLOG"), "append a run-ledger record (JSONL) to this file on exit (default $FPSTUDY_RUNLOG; empty disables); never affects the output")
	flag.Parse()

	// Telemetry observes the pipeline without participating: figures
	// and claims are bit-identical with or without it.
	reg := telemetry.NewRegistry()
	rec := core.InstallPipelineTelemetry(reg)
	rec.PublishExpvar("fpstudy")
	ledger = runlog.Start(*runlogPath, "fpreport", os.Args[1:], reg, rec)
	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(*telemetryAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpreport:", err)
			exit(1)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // best-effort at exit
		}()
		fmt.Fprintf(os.Stderr, "fpreport: telemetry on http://%s/debug/vars (pprof under /debug/pprof/)\n", srv.Addr())
	}

	study := core.Study{Seed: *seed, NMain: *n, NStudent: *nStudents, Workers: *workers,
		Telemetry: rec}

	if *queryExpr != "" {
		if err := runQuery(study, *data, *queryExpr); err != nil {
			fmt.Fprintln(os.Stderr, "fpreport:", err)
			exit(1)
		}
		if finish(0) != 0 {
			os.Exit(1)
		}
		return
	}
	var results *core.Results
	if *data != "" {
		// Loaded-data mode: grade and report on a serialized cohort. At
		// the generating seed and size this reproduces an in-process run
		// bit-for-bit (the golden test pins it).
		var err error
		results, err = resultsFromFiles(study, reg, *data, *studentData)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpreport:", err)
			exit(1)
		}
	} else {
		if *studentData != "" {
			fmt.Fprintln(os.Stderr, "fpreport: -studentdata requires -data")
			exit(2)
		}
		results = study.Run()
	}
	// Each step runs under its own root span: the figures (one child
	// per figure), the claims or an analysis, then render, which covers
	// formatting and the stdout flush.
	var figs []report.Table
	var analysis *report.Table
	var headline []core.Claim
	wantClaims := false
	switch {
	case *calibration:
		analysis = timed(rec, "calibration", results.CalibrationReport)
	case *association:
		analysis = timed(rec, "association", results.FactorAssociation)
	case *items:
		analysis = timed(rec, "items", results.ItemAnalysis)
	case *intervention:
		analysis = timed(rec, "intervention", results.InterventionReport)
	case *confidence:
		analysis = timed(rec, "confidence", results.ConfidenceReport)
	case *fig != 0:
		if *fig < 1 || *fig > 22 {
			fmt.Fprintln(os.Stderr, "fpreport: figure number must be 1-22")
			exit(2)
		}
		figs = figures(rec, results, *fig, *fig)
	case *all:
		figs = figures(rec, results, 1, 22)
		wantClaims = true
	case *claims:
		wantClaims = true
	default:
		// Default: the paper's headline table and histogram.
		figs = figures(rec, results, 12, 13)
		wantClaims = true
	}
	if wantClaims {
		sp := rec.StartSpan("claims")
		headline = results.HeadlineClaims()
		sp.AddItems(int64(len(headline)))
		sp.End()
	}

	rendering = rec.StartSpan("render")
	for _, t := range figs {
		switch {
		case *csv:
			fmt.Fprint(out, t.CSV())
		case *markdown:
			fmt.Fprintln(out, t.Markdown())
		default:
			fmt.Fprintln(out, t.String())
		}
	}
	if analysis != nil {
		fmt.Fprintln(out, analysis.String())
	}
	if *confidence {
		fmt.Fprintf(out, "overconfidence index: %+.3f; optimization humility: %.2f\n",
			results.OverconfidenceIndex(), results.OptHumilityIndex())
	}
	code := 0
	if wantClaims && !printClaims(headline) {
		code = 1
	}
	// A plain return, not exit, so the deferred telemetry shutdown runs.
	if finish(code) != 0 {
		os.Exit(1)
	}
}

// figures computes figures first through last under a "figures" root
// span with one child per figure.
func figures(rec *telemetry.Recorder, results *core.Results, first, last int) []report.Table {
	sp := rec.StartSpan("figures")
	defer sp.End()
	var tables []report.Table
	for num := first; num <= last; num++ {
		c := sp.StartChild(fmt.Sprintf("figure-%02d", num))
		tables = append(tables, results.Figure(num))
		c.AddItems(1)
		c.End()
	}
	sp.AddItems(int64(len(tables)))
	return tables
}

// timed computes one analysis table under a root span named name.
func timed(rec *telemetry.Recorder, name string, analysis func() report.Table) *report.Table {
	sp := rec.StartSpan(name)
	defer sp.End()
	t := analysis()
	return &t
}

// runQuery executes one ad-hoc expression through the vectorized
// engine: streaming off an .fpds -data shard (out-of-core), in memory
// off a row-JSON file, or over a freshly generated main cohort.
func runQuery(study core.Study, dataPath, expr string) error {
	schema := quiz.Columns()
	resolve := func(name string) (query.Value, error) { return quiz.QueryValue(schema, name) }
	p, err := query.Parse(schema, expr, resolve)
	if err != nil {
		return err
	}

	var src query.Source
	switch {
	case dataPath == "":
		src = study.Run().MainSource()
	default:
		f, err := os.Open(dataPath)
		if err != nil {
			return err
		}
		head := make([]byte, 8)
		k, _ := f.ReadAt(head, 0)
		if colstore.DetectFormat(head[:k]) == colstore.FormatBinary {
			// Out-of-core: stream blocks of the bound columns only.
			f.Close()
			sr, err := colstore.OpenShard(schema, dataPath, colstore.IOOptions{Workers: study.Workers})
			if err != nil {
				return err
			}
			defer sr.Close()
			fmt.Fprintf(os.Stderr, "fpreport: streaming %s: fpds, %d responses\n", dataPath, sr.Len())
			src = query.NewShardSource(sr)
		} else {
			f.Close()
			cols, info, err := colstore.LoadFile(schema, dataPath, colstore.IOOptions{Workers: study.Workers})
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "fpreport: loaded %s: %s, %d responses, %.1f MB, %.2fs\n",
				dataPath, info.Format, cols.Len(), float64(info.Bytes)/(1<<20), info.Elapsed.Seconds())
			src = query.NewDatasetSource(cols)
		}
	}

	start := time.Now()
	res, err := query.Run(src, p.Query, study.Workers)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprint(out, p.Render(res))
	fmt.Fprintf(os.Stderr, "fpreport: scanned %d respondents, selected %d, %.3fs (%.1fM respondents/s)\n",
		src.Len(), res.TotalCount(), elapsed.Seconds(),
		float64(src.Len())/elapsed.Seconds()/1e6)
	return nil
}

// resultsFromFiles loads the main (and optionally student) cohort
// through the format-sniffing columnar loader and builds graded results
// off the columns.
func resultsFromFiles(study core.Study, reg *telemetry.Registry, dataPath, studentPath string) (*core.Results, error) {
	opt := colstore.IOOptions{Workers: study.Workers, BytesRead: reg.Counter(core.MetricIOBytesRead)}
	sp := study.Telemetry.StartSpan("load-data")
	main, info, err := colstore.LoadFile(quiz.Columns(), dataPath, opt)
	if err != nil {
		return nil, err
	}
	sp.AddItems(int64(main.Len()))
	sp.End()
	fmt.Fprintf(os.Stderr, "fpreport: loaded %s: %s, %d responses, %.1f MB, %.2fs\n",
		dataPath, info.Format, main.Len(), float64(info.Bytes)/(1<<20), info.Elapsed.Seconds())
	var students *colstore.Dataset
	if studentPath != "" {
		ssp := study.Telemetry.StartSpan("load-studentdata")
		var sinfo colstore.LoadInfo
		students, sinfo, err = colstore.LoadFile(quiz.Columns(), studentPath, opt)
		if err != nil {
			return nil, err
		}
		ssp.AddItems(int64(students.Len()))
		ssp.End()
		fmt.Fprintf(os.Stderr, "fpreport: loaded %s: %s, %d responses, %.1f MB, %.2fs\n",
			studentPath, sinfo.Format, students.Len(), float64(sinfo.Bytes)/(1<<20), sinfo.Elapsed.Seconds())
	}
	return study.ResultsFromColumns(main, students)
}

// printClaims prints the headline claims and reports whether all of
// them pass.
func printClaims(claims []core.Claim) bool {
	fmt.Fprintln(out, "Headline claims (Section IV)")
	fmt.Fprintln(out, "============================")
	ok := true
	for _, c := range claims {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(out, "  [%s] %-34s %s\n", status, c.Name, c.Detail)
	}
	return ok
}
