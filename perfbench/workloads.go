package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"

	"fpstudy/internal/colstore"
	"fpstudy/internal/core"
	"fpstudy/internal/paperdata"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
	"fpstudy/internal/respondent"
	"fpstudy/internal/telemetry"
)

// generateMain generates the main cohort as one respondent-layer call.
// When tracing, it hands the generator a span and records the stage
// spans the generator opens under it (draw profiles, calibrate, sample)
// as children of the call.
func generateMain(b *bench, n int) *colstore.Dataset {
	var root *telemetry.Span
	var pop *respondent.Population
	id, _ := b.t.callWork("respondent.generate_main", func(map[string]int64) error {
		var inst respondent.Instrumentation
		if b.t.on {
			root = telemetry.NewRecorder(nil).StartSpan("generate-main")
			inst.Span = root
		}
		pop = respondent.GenerateMainColumnar(b.seed, n, b.workers, nil, inst)
		root.End()
		return nil
	})
	if b.t.on {
		at := b.t.spanStart(id)
		for _, c := range root.Snapshot().Children {
			name, ok := map[string]string{"draw-profiles": "respondent.draw_profiles",
				"calibrate": "respondent.calibrate", "sample-responses": "respondent.sample"}[c.Name]
			if !ok {
				name = "respondent." + c.Name
			}
			dur := int64(c.Seconds * 1e9)
			b.t.child(id, name, at, dur)
			at += dur
		}
	}
	return pop.Cols
}

func generateStudents(b *bench) *colstore.Dataset {
	var d *colstore.Dataset
	b.t.call("respondent.generate_students", func() error {
		d = respondent.GenerateStudentsColumnar(b.seed+1, paperdata.NStudent, b.workers, respondent.Instrumentation{})
		return nil
	})
	return d
}

// encodeFile writes d to path in FPDS form as one colstore-layer call.
func encodeFile(b *bench, d *colstore.Dataset, path string) error {
	_, err := b.t.callWork("colstore.encode", func(work map[string]int64) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		cw := &countingWriter{w: f}
		if err := d.EncodeBinary(cw, colstore.IOOptions{Workers: b.workers}); err != nil {
			f.Close()
			return fmt.Errorf("encode %s: %w", path, err)
		}
		if work != nil {
			work["bytes"] = cw.n
		}
		return f.Close()
	})
	return err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// buildCohortFile generates the main cohort at the run's seed and
// writes it to path, the fpgen -o x.fpds path.
func buildCohortFile(b *bench, n int, path string) (*colstore.Dataset, error) {
	d := generateMain(b, n)
	return d, encodeFile(b, d, path)
}

// encodedHash hashes the FPDS encoding of d, which holds all of its
// state: codes, spills, string arena, tokens and flags.
func encodedHash(d *colstore.Dataset, workers int) ([32]byte, error) {
	var out [32]byte
	h := sha256.New()
	if err := d.EncodeBinary(h, colstore.IOOptions{Workers: workers}); err != nil {
		return out, err
	}
	copy(out[:], h.Sum(nil))
	return out, nil
}

func fileHash(path string) ([32]byte, error) {
	var out [32]byte
	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return out, err
	}
	copy(out[:], h.Sum(nil))
	return out, nil
}

// renderReport renders figures and claims the way fpreport -all prints
// them, as one report-layer call.
func renderReport(b *bench, figs []report.Table, claims []core.Claim, extra ...report.Table) string {
	var out string
	b.t.callWork("report.render", func(work map[string]int64) error {
		var sb strings.Builder
		for _, t := range figs {
			sb.WriteString(t.String())
			sb.WriteByte('\n')
		}
		sb.WriteString("Headline claims (Section IV)\n============================\n")
		for _, c := range claims {
			status := "PASS"
			if !c.Pass {
				status = "FAIL"
			}
			fmt.Fprintf(&sb, "  [%s] %-34s %s\n", status, c.Name, c.Detail)
		}
		for _, t := range extra {
			sb.WriteString(t.String())
			sb.WriteByte('\n')
		}
		out = sb.String()
		if work != nil {
			work["bytes"] = int64(len(out))
		}
		return nil
	})
	return out
}

// figuresAndClaims renders all 22 figures and the headline claims, one
// core-layer call each.
func figuresAndClaims(b *bench, r *core.Results) ([]report.Table, []core.Claim) {
	figs := make([]report.Table, 22)
	for i := 1; i <= 22; i++ {
		b.t.call(figureSpan(i), func() error {
			figs[i-1] = r.Figure(i)
			return nil
		})
	}
	var claims []core.Claim
	b.t.call("core.claims", func() error {
		claims = r.HeadlineClaims()
		return nil
	})
	return figs, claims
}

// --- generate-1m: fpgen for both cohorts, writing .fpds files.

type generateWL struct {
	n          int
	mainPath   string
	studPath   string
	want       [2][32]byte // encoded hashes of the reference generation
	firstFiles [2][32]byte // file hashes of the first pass
	passes     int
}

func (w *generateWL) respondents() int { return w.n + paperdata.NStudent }

// setup warms the generator, encoder and answer key on a small cohort.
func (w *generateWL) setup(b *bench) error {
	w.mainPath = filepath.Join(b.dir, "main.fpds")
	w.studPath = filepath.Join(b.dir, "students.fpds")
	_, err := buildCohortFile(b, 1<<16, w.mainPath)
	return err
}

// prepare generates the reference cohorts serially through core.Study.
func (w *generateWL) prepare(b *bench) error {
	ref := core.Study{Seed: b.seed, NMain: w.n, NStudent: paperdata.NStudent, Workers: 1, ColumnarOnly: true}.Run()
	for i, d := range []*colstore.Dataset{ref.Main.Cols, ref.StudentCols} {
		h, err := encodedHash(d, 1)
		if err != nil {
			return err
		}
		w.want[i] = h
	}
	return nil
}

func (w *generateWL) pass(b *bench) error {
	return b.t.do(func() error {
		if _, err := buildCohortFile(b, w.n, w.mainPath); err != nil {
			return err
		}
		return encodeFile(b, generateStudents(b), w.studPath)
	})
}

// check hashes the files the pass wrote: every pass must write the same
// bytes as the first.
func (w *generateWL) check(b *bench) (int, []string) {
	var bad []string
	for i, p := range []string{w.mainPath, w.studPath} {
		h, err := fileHash(p)
		switch {
		case err != nil:
			bad = append(bad, err.Error())
		case w.passes == 0:
			w.firstFiles[i] = h
		case h != w.firstFiles[i]:
			bad = append(bad, fmt.Sprintf("pass %d wrote %s with different bytes", w.passes+1, filepath.Base(p)))
		}
	}
	w.passes++
	return 2, bad
}

// finish decodes the last files written and compares them with the
// reference generation.
func (w *generateWL) finish(b *bench) (int, []string) {
	var bad []string
	for i, path := range []string{w.mainPath, w.studPath} {
		d, _, err := colstore.LoadFile(quiz.Columns(), path, colstore.IOOptions{Workers: b.workers})
		var h [32]byte
		if err == nil {
			h, err = encodedHash(d, b.workers)
		}
		if err != nil {
			bad = append(bad, err.Error())
		} else if h != w.want[i] {
			bad = append(bad, fmt.Sprintf("%s does not decode to the reference generation", filepath.Base(path)))
		}
	}
	return 2, bad
}

// --- report-1m: fpreport -data x.fpds -all on a 1M cohort.

type reportWL struct {
	n    int
	path string
	want string // rendered by an in-process Study.Run
	got  string
}

func (w *reportWL) respondents() int { return w.n }

func (w *reportWL) study(b *bench) core.Study {
	return core.Study{Seed: b.seed, NMain: w.n, NStudent: paperdata.NStudent, Workers: b.workers, ColumnarOnly: true}
}

func (w *reportWL) setup(b *bench) error {
	w.path = filepath.Join(b.dir, "main.fpds")
	_, err := buildCohortFile(b, w.n, w.path)
	return err
}

// prepare renders the report from an in-process run that never touches
// the file.
func (w *reportWL) prepare(b *bench) error {
	r := w.study(b).Run()
	figs := r.AllFigures()
	w.want = renderReport(b, figs, r.HeadlineClaims())
	return nil
}

func (w *reportWL) pass(b *bench) error {
	return b.t.do(func() error {
		var main *colstore.Dataset
		_, err := b.t.callWork("colstore.load", func(work map[string]int64) error {
			d, info, err := colstore.LoadFile(quiz.Columns(), w.path, colstore.IOOptions{Workers: b.workers})
			main = d
			if work != nil {
				work["bytes"] = info.Bytes
			}
			return err
		})
		if err != nil {
			return err
		}
		var r *core.Results
		if err := b.t.call("core.results", func() error {
			r, err = w.study(b).ResultsFromColumns(main, nil)
			return err
		}); err != nil {
			return err
		}
		figs, claims := figuresAndClaims(b, r)
		w.got = renderReport(b, figs, claims)
		return nil
	})
}

func (w *reportWL) check(b *bench) (int, []string) {
	var bad []string
	if w.got != w.want {
		bad = append(bad, "report differs from the in-process Study.Run report")
	}
	if n := strings.Count(w.got, "  [PASS] "); n != 11 || strings.Contains(w.got, "  [FAIL] ") {
		bad = append(bad, fmt.Sprintf("%d of 11 headline claims pass", n))
	}
	return 2, bad
}

func (w *reportWL) finish(*bench) (int, []string) { return 0, nil }

// --- slice-1m: fpreport -data x.fpds -query, streamed out of core.

// sliceQueries is the request mix: the query-smoke expressions, the
// fpbench query legs, and a grouped mean of a derived optimization-quiz
// measure.
var sliceQueries = []string{
	"//count",
	"susp.invalid>=4/bg.contrib_size/count",
	"/bg.formal_training/mean:core.score",
	"bg.formal_training!=None/bg.contrib_size/mean:susp.invalid",
	"//mean:core.score",
	"bg.contrib_size=>1,000,000 lines of code//count",
	"/bg.formal_training/mean:susp.invalid",
	"/bg.role/mean:optall.dontknow",
}

type sliceWL struct {
	n        int
	path     string
	cols     *colstore.Dataset // the last cohort setup generated, until prepare
	want     []*query.Result
	wantText []string
	got      []*query.Result
	gotText  []string
	hooked   bool // the query work hook is installed
	rows     atomic.Int64
	skipped  atomic.Int64
}

func (w *sliceWL) respondents() int { return w.n * len(sliceQueries) }

func (w *sliceWL) setup(b *bench) error {
	w.path = filepath.Join(b.dir, "main.fpds")
	d, err := buildCohortFile(b, w.n, w.path)
	w.cols = d
	return err
}

func resolver(name string) (query.Value, error) { return quiz.QueryValue(quiz.Columns(), name) }

// prepare runs the mix in memory over the generated cohort, then drops
// the cohort so the timed section holds only what streaming needs.
func (w *sliceWL) prepare(b *bench) error {
	src := query.NewDatasetSource(w.cols)
	for _, expr := range sliceQueries {
		p, err := query.Parse(quiz.Columns(), expr, resolver)
		if err != nil {
			return err
		}
		res, err := query.Run(src, p.Query, b.workers)
		if err != nil {
			return err
		}
		w.want = append(w.want, res)
		w.wantText = append(w.wantText, p.Render(res))
	}
	w.cols = nil
	return nil
}

func (w *sliceWL) pass(b *bench) error {
	if b.t.on && !w.hooked {
		// The engine's work counters are tracing: off in untraced runs.
		query.SetWorkHook(&query.WorkHook{
			RowsScanned:  func(n int) { w.rows.Add(int64(n)) },
			BlockSkipped: func() { w.skipped.Add(1) },
		})
		w.hooked = true
	}
	w.got, w.gotText = w.got[:0], w.gotText[:0]
	for _, expr := range sliceQueries {
		if err := b.t.do(func() error { return w.request(b, expr) }); err != nil {
			return err
		}
	}
	return nil
}

// request is one fpreport -data x.fpds -query expr, minus process start.
func (w *sliceWL) request(b *bench, expr string) error {
	var sr *colstore.ShardReader
	if err := b.t.call("colstore.open_shard", func() (err error) {
		sr, err = colstore.OpenShard(quiz.Columns(), w.path, colstore.IOOptions{Workers: b.workers})
		return err
	}); err != nil {
		return err
	}
	var p *query.Parsed
	if err := b.t.call("query.parse", func() (err error) {
		p, err = query.Parse(sr.Schema(), expr, resolver)
		return err
	}); err != nil {
		sr.Close()
		return err
	}
	var res *query.Result
	_, err := b.t.callWork("query.run", func(work map[string]int64) (err error) {
		rows, skipped := w.rows.Load(), w.skipped.Load()
		res, err = query.Run(query.NewShardSource(sr), p.Query, b.workers)
		if work != nil {
			work["rows_scanned"] = w.rows.Load() - rows
			work["blocks_skipped"] = w.skipped.Load() - skipped
		}
		return err
	})
	if err != nil {
		sr.Close()
		return err
	}
	var text string
	b.t.callWork("report.render", func(work map[string]int64) error {
		text = p.Render(res)
		if work != nil {
			work["bytes"] = int64(len(text))
		}
		return nil
	})
	w.got = append(w.got, res)
	w.gotText = append(w.gotText, text)
	return b.t.call("colstore.close_shard", sr.Close)
}

func (w *sliceWL) check(*bench) (int, []string) {
	var bad []string
	for i := range sliceQueries {
		if !reflect.DeepEqual(w.got[i], w.want[i]) || w.gotText[i] != w.wantText[i] {
			bad = append(bad, fmt.Sprintf("streamed %q differs from the in-memory result", sliceQueries[i]))
		}
	}
	return len(sliceQueries), bad
}

func (w *sliceWL) finish(*bench) (int, []string) {
	query.SetWorkHook(nil)
	return 0, nil
}

// --- paper-ensemble: full reports at the paper's size over 200 seeds.

// defaultPassing is how many of seeds 1..200 pass every headline claim
// at the paper's cohort sizes.
const defaultPassing = 180

type ensembleWL struct {
	seeds   int
	reports [][32]byte // hash of each seed's report, this pass
	failing []bool     // whether some claim failed, per seed, this pass
	pass1   [][32]byte
	passing int
	passes  int
}

func (w *ensembleWL) respondents() int { return w.seeds * (paperdata.NMain + paperdata.NStudent) }

// warmRequests is how many seeds one set-up runs to warm the pipeline;
// ten make it long enough to time steadily.
const warmRequests = 10

func (w *ensembleWL) setup(b *bench) error {
	for i := 0; i < warmRequests; i++ {
		w.request(b, b.seed+int64(i))
	}
	return nil
}

func (w *ensembleWL) prepare(*bench) error { return nil }

// pass issues one request per seed. Only a hash of each report is
// kept, so the pass holds no more memory than one request needs.
func (w *ensembleWL) pass(b *bench) error {
	w.reports, w.failing = w.reports[:0], w.failing[:0]
	for i := 0; i < w.seeds; i++ {
		seed := b.seed + int64(i)
		var out string
		if err := b.t.do(func() error {
			out = w.request(b, seed)
			return nil
		}); err != nil {
			return err
		}
		w.reports = append(w.reports, sha256.Sum256([]byte(out)))
		w.failing = append(w.failing, strings.Contains(out, "  [FAIL] "))
	}
	return nil
}

// request is one full paper-size report: run, figures, claims and the
// five analyses.
func (w *ensembleWL) request(b *bench, seed int64) string {
	var r *core.Results
	b.t.call("core.run", func() error {
		r = core.Study{Seed: seed, NMain: paperdata.NMain, NStudent: paperdata.NStudent,
			Workers: b.workers, ColumnarOnly: true}.Run()
		return nil
	})
	figs, claims := figuresAndClaims(b, r)
	analyses := make([]report.Table, 5)
	for i, a := range []struct {
		span string
		fn   func() report.Table
	}{
		{"core.calibration", r.CalibrationReport},
		{"core.association", r.FactorAssociation},
		{"core.items", r.ItemAnalysis},
		{"core.confidence", r.ConfidenceReport},
		{"core.intervention", r.InterventionReport},
	} {
		b.t.call(a.span, func() error {
			analyses[i] = a.fn()
			return nil
		})
	}
	return renderReport(b, figs, claims, analyses...)
}

// check counts the seeds whose every claim passed and pins each seed's
// report to the first pass's bytes.
func (w *ensembleWL) check(b *bench) (int, []string) {
	var bad []string
	passing := 0
	for i, h := range w.reports {
		if !w.failing[i] {
			passing++
		}
		if w.passes == 0 {
			w.pass1 = append(w.pass1, h)
		} else if h != w.pass1[i] {
			bad = append(bad, fmt.Sprintf("seed %d report differs from the first pass", b.seed+int64(i)))
		}
	}
	if w.passes == 0 {
		w.passing = passing
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d seeds from %d pass every headline claim\n", passing, w.seeds, b.seed)
		if b.seed == 1 && passing != defaultPassing {
			bad = append(bad, fmt.Sprintf("%d of seeds 1..%d pass every claim, want %d", passing, w.seeds, defaultPassing))
		}
	} else if passing != w.passing {
		bad = append(bad, fmt.Sprintf("%d seeds pass every claim, first pass had %d", passing, w.passing))
	}
	w.passes++
	return len(w.reports) + 1, bad
}

func (w *ensembleWL) finish(*bench) (int, []string) { return 0, nil }
