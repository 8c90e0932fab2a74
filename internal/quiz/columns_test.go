package quiz

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fpstudy/internal/colstore"
	"fpstudy/internal/ieee754"
	"fpstudy/internal/query"
	"fpstudy/internal/survey"
)

// columnarFixture builds a small columnar cohort by hand: respondent 0
// answers everything correctly, respondent 1 mixes wrong / don't know /
// unanswered, respondent 2 answers nothing.
func columnarFixture(t testing.TB) *colstore.Dataset {
	s := Columns()
	d := s.NewDataset("1.0", 3)
	for _, q := range CoreQuestions() {
		ci := s.MustColumnIndex(q.ID)
		d.SetTF(ci, 0, tfCorrectCode(CoreAnswer(q.ID)))
		d.SetTF(ci, 1, colstore.TFDontKnow)
	}
	for _, q := range OptQuestions() {
		ci := s.MustColumnIndex(q.ID)
		if q.IsTrueFalse() {
			correct := tfCorrectCode(OptAnswer(q.ID))
			d.SetTF(ci, 0, correct)
			wrong := colstore.TFTrue
			if correct == colstore.TFTrue {
				wrong = colstore.TFFalse
			}
			d.SetTF(ci, 1, wrong)
		} else {
			d.SetSingle(ci, 0, s.Column(ci).MustOptionCode(OptAnswer(q.ID)))
			// Respondent 1 leaves the choice question unanswered (0).
		}
	}
	return d
}

// randomGradingCohort builds a seeded-random cohort that exercises
// every grading path: all four T/F codes (unanswered, true, false,
// don't know) on every T/F question, and every declared Level option
// plus unanswered and a free-text Level answer (a negative code). n
// spans several query blocks and ends in a partial one.
func randomGradingCohort(t testing.TB, n int) *colstore.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	ins := Instrument()
	tf := []string{"", survey.AnswerTrue, survey.AnswerFalse, survey.AnswerDontKnow}
	level, _ := OptQuestionByID("opt.level")
	ds := &survey.Dataset{Instrument: ins.Title, Version: ins.Version,
		Responses: make([]survey.Response, n)}
	for i := range ds.Responses {
		answers := map[string]survey.Answer{}
		for _, q := range CoreQuestions() {
			if c := tf[rng.Intn(len(tf))]; c != "" {
				answers[q.ID] = survey.Answer{Choice: c}
			}
		}
		for _, q := range OptQuestions() {
			if q.IsTrueFalse() {
				if c := tf[rng.Intn(len(tf))]; c != "" {
					answers[q.ID] = survey.Answer{Choice: c}
				}
				continue
			}
			switch k := rng.Intn(len(level.Choices) + 2); {
			case k < len(level.Choices):
				answers[q.ID] = survey.Answer{Choice: level.Choices[k]}
			case k == len(level.Choices):
				answers[q.ID] = survey.Answer{Choice: "-Ofast (write-in)"}
			}
		}
		ds.Responses[i].Answers = answers
	}
	ds.Anonymize()
	d, err := colstore.FromSurvey(Columns(), ds)
	if err != nil {
		t.Fatalf("FromSurvey: %v", err)
	}
	return d
}

// mustGrade grades an in-memory cohort.
func mustGrade(t testing.TB, d *colstore.Dataset, workers int) *OutcomeCounts {
	t.Helper()
	g, err := Grade(query.NewDatasetSource(d), workers)
	if err != nil {
		t.Fatalf("Grade: %v", err)
	}
	return g
}

// TestScoreColumnsMatchesRowScoring is the grading kernel's property
// test: on a random cohort with every answer code, the twelve graded
// columns equal the row scorers (ScoreCore, ScoreOptScored, ScoreOpt)
// of the materialized row view for every respondent, at workers 1, 4
// and 16; and the streaming query value (QueryValue, which grades per
// block with the same kernel) reads the same numbers off both the
// in-memory and the FPDS-streamed source.
func TestScoreColumnsMatchesRowScoring(t *testing.T) {
	if p := runtime.GOMAXPROCS(0); p < 16 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	}
	n := 2*query.BlockRows + 77
	d := randomGradingCohort(t, n)
	codes := map[uint8]bool{}
	freeText := false
	levelCi := Columns().MustColumnIndex("opt.level")
	for i := 0; i < n; i++ {
		codes[d.TF(Columns().MustColumnIndex(CoreQuestions()[0].ID), i)] = true
		freeText = freeText || d.SingleCode(levelCi, i) < 0
	}
	if len(codes) != 4 || !freeText {
		t.Fatalf("cohort lacks a grading path: T/F codes %v, free-text Level %v", codes, freeText)
	}

	rows := d.ToSurvey()
	views := []struct {
		view  QuizView
		score func(survey.Response) Tally
	}{{QuizCore, ScoreCore}, {QuizOpt, ScoreOptScored}, {QuizOptAll, ScoreOpt}}
	for _, workers := range []int{1, 4, 16} {
		g := mustGrade(t, d, workers)
		if g.Len() != n {
			t.Fatalf("workers=%d: graded %d respondents, want %d", workers, g.Len(), n)
		}
		for i, r := range rows.Responses {
			for _, v := range views {
				if got, want := g.Tally(v.view, i), v.score(r); got != want {
					t.Fatalf("workers=%d respondent %d view %d: graded %+v, row scorer %+v",
						workers, i, v.view, got, want)
				}
			}
		}
	}

	g := mustGrade(t, d, 1)
	var bin bytes.Buffer
	if err := d.EncodeBinary(&bin, colstore.IOOptions{}); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	sr, err := colstore.NewShardReader(d.Schema, bytes.NewReader(bin.Bytes()), int64(bin.Len()), colstore.IOOptions{})
	if err != nil {
		t.Fatalf("NewShardReader: %v", err)
	}
	for _, src := range []query.Source{query.NewDatasetSource(d), query.NewShardSource(sr)} {
		for q, view := range []string{"core", "opt", "optall"} {
			for o, field := range []string{"score", "incorrect", "dontknow", "unanswered"} {
				name := view + "." + field
				v, err := QueryValue(d.Schema, name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := query.RunCollect(src, query.Query{Values: []query.Value{v}}, 4)
				if err != nil {
					t.Fatalf("%s: RunCollect: %v", name, err)
				}
				col := g.Column(QuizView(q), PerQuestionOutcome(o))
				for i, x := range res.Groups[0] {
					if want := col[i]; x != float64(want) {
						t.Fatalf("%s respondent %d: query value %v, graded column %d", name, i, x, want)
					}
				}
			}
		}
	}
}

// TestScoreColumnsFixtureValues pins the fixture's expected tallies
// directly, independent of the row scorer.
func TestScoreColumnsFixtureValues(t *testing.T) {
	g := mustGrade(t, columnarFixture(t), 1)
	core, optAll := g.Tally(QuizCore, 0), g.Tally(QuizOptAll, 0)
	if core.Correct != len(CoreQuestions()) || optAll.Correct != len(OptQuestions()) {
		t.Fatalf("perfect respondent scored %d/%d core, %d/%d opt",
			core.Correct, len(CoreQuestions()), optAll.Correct, len(OptQuestions()))
	}
	core, optAll = g.Tally(QuizCore, 2), g.Tally(QuizOptAll, 2)
	if core.Unanswered != len(CoreQuestions()) || optAll.Unanswered != len(OptQuestions()) {
		t.Fatalf("silent respondent tallied %+v / %+v", core, optAll)
	}
	core, optScored, optAll := g.Tally(QuizCore, 1), g.Tally(QuizOpt, 1), g.Tally(QuizOptAll, 1)
	if core.DontKnow != len(CoreQuestions()) {
		t.Fatalf("respondent 1 core = %+v, want all don't-know", core)
	}
	if optScored.Incorrect != 3 || optAll.Unanswered != 1 {
		t.Fatalf("respondent 1 opt = %+v / %+v", optScored, optAll)
	}
}

// TestClassifyAtMatchesRows cross-checks the per-question outcome
// keyers against the row classifier for every question slot.
func TestClassifyAtMatchesRows(t *testing.T) {
	d := randomGradingCohort(t, 300)
	rows := d.ToSurvey()
	check := func(kind string, k int, keyer query.Keyer, want func(survey.Response) PerQuestionOutcome) {
		r, err := query.NewDatasetSource(d).NewReader(keyer.Columns())
		if err != nil {
			t.Fatal(err)
		}
		blk, err := r.Block(0)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]int32, blk.N)
		keyer.Keys(blk, keys)
		for i, key := range keys {
			if w := want(rows.Responses[i]); PerQuestionOutcome(key) != w {
				t.Fatalf("respondent %d %s[%d]: keyer %v, row classifier %v", i, kind, k, key, w)
			}
		}
	}
	for k, q := range CoreQuestions() {
		check("core", k, CoreOutcomeKeyer(d.Schema, k),
			func(r survey.Response) PerQuestionOutcome { return ClassifyCore(r, q) })
	}
	for k, q := range OptQuestions() {
		check("opt", k, OptOutcomeKeyer(d.Schema, k),
			func(r survey.Response) PerQuestionOutcome { return ClassifyOpt(r, q) })
	}
}

// TestScoreColumnsZeroAlloc pins the zero-allocation contract of the
// per-block grading kernel.
func TestScoreColumnsZeroAlloc(t *testing.T) {
	d := randomGradingCohort(t, query.BlockRows)
	tbl := ScoreTableFor(d.Schema)
	g := mustGrade(t, d, 1)
	r, err := query.NewDatasetSource(d).NewReader(tbl.columns())
	if err != nil {
		t.Fatal(err)
	}
	blk, err := r.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	acc := make([]uint32, query.BlockRows)
	allocs := testing.AllocsPerRun(20, func() { tbl.gradeBlock(blk, acc, g) })
	if allocs != 0 {
		t.Fatalf("gradeBlock allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestGradeColumnsWorkersInvariant checks grading is independent of
// the worker count on a multi-block cohort.
func TestGradeColumnsWorkersInvariant(t *testing.T) {
	d := randomGradingCohort(t, 3*query.BlockRows+5)
	base := mustGrade(t, d, 1)
	for _, w := range []int{2, 4, 0} {
		g := mustGrade(t, d, w)
		for q := range g.cols {
			for o := range g.cols[q] {
				if !bytes.Equal(g.cols[q][o], base.cols[q][o]) {
					t.Fatalf("workers=%d diverges at view %d outcome %d", w, q, o)
				}
			}
		}
	}
}

// TestGradeBatchObserverPerBlock pins the grade-batch latency
// contract: one observation per query block, so an n=1M grading
// records enough observations for a p99 gate.
func TestGradeBatchObserverPerBlock(t *testing.T) {
	n := 3*query.BlockRows + 5
	d := randomGradingCohort(t, n)
	var calls, rows atomic.Int64
	SetGradeBatchObserver(func(k int, _ time.Duration) {
		calls.Add(1)
		rows.Add(int64(k))
	})
	defer SetGradeBatchObserver(nil)
	mustGrade(t, d, 4)
	if got, want := calls.Load(), int64(query.NumBlocks(n)); got != want {
		t.Fatalf("grade-batch observer fired %d times, want %d (one per block)", got, want)
	}
	if rows.Load() != int64(n) {
		t.Fatalf("observed %d respondents, want %d", rows.Load(), n)
	}
}

// BenchmarkGradeColumns times grading a 64k-respondent cohort into the
// outcome-count columns.
func BenchmarkGradeColumns(b *testing.B) {
	d := randomGradingCohort(b, 8*query.BlockRows)
	src := query.NewDatasetSource(d)
	ScoreTableFor(d.Schema)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := Grade(src, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScoreTableCachedOncePerProcess pins the oracle-cache contract:
// the canonical schema's grading table is one shared instance, and once
// the answer key exists, scoring any number of datasets consults it
// without ever re-running an ieee754 oracle.
func TestScoreTableCachedOncePerProcess(t *testing.T) {
	a := ScoreTableFor(Columns())
	b := ScoreTableFor(Columns())
	if a != b {
		t.Fatal("canonical ScoreTable not cached: distinct instances returned")
	}

	// With the key warm, further table fetches and full gradings must
	// not evaluate a single oracle operation. The observer would count
	// any softfloat activity the oracles perform.
	var evals atomic.Int64
	SetOracleObserver(func(ieee754.OpEvent) { evals.Add(1) })
	defer SetOracleObserver(nil)

	d := Columns().NewDataset("1.0", 16)
	mustGrade(t, d, 1)
	_ = ScoreTableFor(Columns())
	_ = CoreAnswer(CoreQuestions()[0].ID)
	if n := evals.Load(); n != 0 {
		t.Fatalf("grading after answer-key build re-ran oracles (%d softfloat ops observed)", n)
	}
}
