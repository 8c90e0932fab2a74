// Package core orchestrates the full reproduction study: it generates
// the calibrated synthetic cohorts, grades them with the oracle-backed
// quiz, runs the statistical analysis, and renders every figure of the
// paper (Figures 1-22) as a table, alongside the paper's published
// values for comparison.
package core

import (
	"fmt"

	"fpstudy/internal/colstore"
	"fpstudy/internal/paperdata"
	"fpstudy/internal/parallel"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
	"fpstudy/internal/respondent"
	"fpstudy/internal/stats"
	"fpstudy/internal/survey"
	"fpstudy/internal/telemetry"
)

// Study configures one reproduction run.
type Study struct {
	// Seed drives all population generation deterministically.
	Seed int64
	// NMain is the main cohort size (the paper had 199).
	NMain int
	// NStudent is the student cohort size (the paper had 52).
	NStudent int
	// Workers bounds the parallelism of generation, grading, and
	// figure tallies; <= 0 means GOMAXPROCS. The worker count never
	// affects the produced data, only the wall-clock time.
	Workers int
	// Telemetry, when non-nil, records the run's span tree
	// (run → generate-main / generate-students / grade, plus a figures
	// tree when figures are rendered) and pipeline counters. Nil
	// disables instrumentation at effectively zero cost (nil-safe
	// no-op handles). Telemetry never affects the produced data; the
	// golden test pins bit-identical output with it on or off.
	Telemetry *telemetry.Recorder
	// Deprecated: ColumnarOnly is ignored. Every run is columnar; the
	// field remains only so existing callers still compile.
	ColumnarOnly bool
}

// DefaultStudy mirrors the paper's cohort sizes.
func DefaultStudy() Study {
	return Study{Seed: 42, NMain: paperdata.NMain, NStudent: paperdata.NStudent}
}

// Results holds the generated cohorts and their grades.
type Results struct {
	Study Study
	// Main is the main cohort.
	Main *respondent.Population
	// StudentCols is the student cohort.
	StudentCols *colstore.Dataset

	// Outcomes is the main cohort graded once: per-respondent outcome
	// counts on the core quiz, the three T/F optimization questions
	// (the paper's Figure 12 view) and all four optimization questions.
	// Figures, claims and analyses read these columns instead of
	// re-grading the answers.
	Outcomes *quiz.OutcomeCounts

	instrument *survey.Instrument
	workers    int
	telemetry  *telemetry.Recorder

	mainSrc    query.Source
	studentSrc query.Source
	// treatedSource, when set, replaces query.NewDatasetSource as the
	// engine view of the intervention's treated cohorts (a test seam
	// for reader failures).
	treatedSource func(*colstore.Dataset) query.Source
}

// MainSource returns the query-engine view of the main cohort's
// columns (built once, then cached). Every figure and headline claim
// runs through it.
func (r *Results) MainSource() query.Source {
	if r.mainSrc == nil {
		r.mainSrc = query.NewDatasetSource(r.Main.Cols)
	}
	return r.mainSrc
}

// StudentSource returns the query-engine view of the student cohort's
// columns.
func (r *Results) StudentSource() query.Source {
	if r.studentSrc == nil {
		r.studentSrc = query.NewDatasetSource(r.StudentCols)
	}
	return r.studentSrc
}

// graded returns the query value reading one graded outcome column of
// the main cohort. It binds no answer columns.
func (r *Results) graded(view quiz.QuizView, o quiz.PerQuestionOutcome) query.Value {
	return query.SliceValue[uint8]{Vals: r.Outcomes.Column(view, o)}
}

// grade grades the main cohort once into r.Outcomes under a "grade"
// child span of root.
func (r *Results) grade(root *telemetry.Span) error {
	sp := root.StartChild("grade")
	defer sp.End()
	g, err := quiz.Grade(r.MainSource(), r.workers)
	if err != nil {
		return err
	}
	r.Outcomes = g
	sp.AddItems(int64(g.Len()))
	return nil
}

// Run executes the study: generation, then oracle-keyed grading, both
// sharded across the study's worker budget. When s.Telemetry is set,
// the run records a span tree (generate-main with its draw / calibrate
// / sample children, generate-students, grade) with per-stage wall
// time, item counts, and throughput.
func (s Study) Run() *Results {
	r := &Results{Study: s, instrument: quiz.Instrument(), workers: s.Workers, telemetry: s.Telemetry}
	root := s.Telemetry.StartSpan("run")
	prog := s.Telemetry.Registry().Counter(MetricRespondents)
	// The two cohorts use unrelated seeds and share no mutable state,
	// so they generate concurrently; the main cohort additionally fans
	// out across the worker budget internally.
	pool := parallel.NewPool(2)
	pool.Go(func() {
		sp := root.StartChild("generate-main")
		r.Main = respondent.GenerateMainColumnar(s.Seed, s.NMain, s.Workers, nil,
			respondent.Instrumentation{Span: sp, Progress: prog})
		sp.AddItems(int64(s.NMain))
		sp.End()
	})
	pool.Go(func() {
		sp := root.StartChild("generate-students")
		r.StudentCols = respondent.GenerateStudentsColumnar(s.Seed+1, s.NStudent, s.Workers,
			respondent.Instrumentation{Span: sp})
		sp.AddItems(int64(s.NStudent))
		sp.End()
	})
	pool.Wait()
	if err := r.grade(root); err != nil {
		// The cohort is in memory: its block reader cannot fail.
		panic(fmt.Sprintf("core: grading the generated cohort: %v", err))
	}
	root.AddItems(int64(s.NMain + s.NStudent))
	root.End()
	s.Telemetry.Registry().Counter(MetricRuns).Inc()
	return r
}

// backgroundFigure describes one of Figures 1-11.
type backgroundFigure struct {
	num       int
	title     string
	question  string
	paper     []paperdata.CountEntry
	multi     bool
	paperBase int // denominator for paper percentages
}

func (r *Results) backgroundFigures() []backgroundFigure {
	return []backgroundFigure{
		{1, "Positions of participants", quiz.BGPosition, paperdata.Figure1Positions, false, paperdata.NMain},
		{2, "Areas of participants", quiz.BGArea, paperdata.Figure2Areas, false, paperdata.NMain},
		{3, "Formal Training in floating point", quiz.BGFormalTraining, paperdata.Figure3FormalTraining, false, paperdata.NMain},
		{4, "Informal Training in floating point (top 5)", quiz.BGInformal, paperdata.Figure4InformalTraining, true, paperdata.NMain},
		{5, "Software Development Roles", quiz.BGRole, paperdata.Figure5Roles, false, paperdata.NMain},
		{6, "Floating Point Language Experience (n>=5)", quiz.BGFPLanguages, paperdata.Figure6FPLanguages, true, paperdata.NMain},
		{7, "Arbitrary Precision Language Experience (n>=5)", quiz.BGArbPrec, paperdata.Figure7ArbPrec, true, paperdata.NMain},
		{8, "Contributed Codebase Sizes", quiz.BGContribSize, paperdata.Figure8ContribSize, false, paperdata.NMain},
		{9, "Contributed Codebase Floating Point Extent", quiz.BGContribExtent, paperdata.Figure9ContribExtent, false, paperdata.NMain},
		{10, "Involved Codebase Sizes", quiz.BGInvolvedSize, paperdata.Figure10InvolvedSize, false, paperdata.NMain},
		{11, "Involved Codebase Floating Point Extent", quiz.BGInvolvedExtent, paperdata.Figure11InvolvedExtent, false, paperdata.NMain},
	}
}

// FigureBackground renders one of Figures 1-11: the generated cohort's
// distribution with the paper's values alongside.
func (r *Results) FigureBackground(num int) report.Table {
	var bf backgroundFigure
	found := false
	for _, c := range r.backgroundFigures() {
		if c.num == num {
			bf = c
			found = true
			break
		}
	}
	if !found {
		return report.Table{Title: fmt.Sprintf("unknown background figure %d", num)}
	}
	tal, err := r.shardedTally(bf.question)
	t := report.Table{
		Title:  fmt.Sprintf("Figure %d: %s", bf.num, bf.title),
		Header: []string{"Level", "n", "%", "paper n", "paper %"},
	}
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	n := r.Main.Cols.Len()
	for _, e := range bf.paper {
		got := tal[e.Label]
		t.AddRow(e.Label,
			report.I(got), report.Pct(100*float64(got)/float64(n)),
			report.I(e.N), report.Pct(paperdata.Percent(e, bf.paperBase)))
	}
	if un := tal["unanswered"]; un > 0 && !bf.multi {
		t.AddRow("(unanswered)", report.I(un), report.Pct(100*float64(un)/float64(n)), "-", "-")
	}
	return t
}

// shardedTally tallies one background question through the query
// engine's block-vectorized Tally kernel. It mirrors
// survey.Instrument.Tally's semantics ("unanswered" bucket, one count
// per selected multi-choice option); counts are order-insensitive, so
// the result is identical at any worker count.
func (r *Results) shardedTally(questionID string) (map[string]int, error) {
	return query.Tally(r.MainSource(), questionID, r.workers)
}

// Figure12 renders the average quiz performance table.
func (r *Results) Figure12() report.Table {
	t := report.Table{
		Title: "Figure 12: Average (expected) performance on the core and optimization quizzes",
		Header: []string{"Quiz", "# Correct", "# Incorrect", "# Don't Know", "# No Answer", "# Chance",
			"paper Correct", "paper Chance"},
	}
	core, err := r.meanTallies(quiz.QuizCore)
	var opt meanTallyResult
	if err == nil {
		opt, err = r.meanTallies(quiz.QuizOpt)
	}
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	t.AddRow("Core",
		report.F(core.Correct), report.F(core.Incorrect), report.F(core.DontKnow), report.F(core.Unanswered),
		report.F(quiz.CoreChance),
		report.F(paperdata.Figure12Core.Correct), report.F(paperdata.Figure12Core.Chance))
	t.AddRow("Optimization",
		report.F(opt.Correct), report.F(opt.Incorrect), report.F(opt.DontKnow), report.F(opt.Unanswered),
		report.F(quiz.OptChance),
		report.F(paperdata.Figure12Opt.Correct), report.F(paperdata.Figure12Opt.Chance))
	t.Notes = append(t.Notes,
		"optimization row covers the three T/F questions; Standard-compliant Level is excluded (not T/F)")
	return t
}

type meanTallyResult struct {
	Correct, Incorrect, DontKnow, Unanswered float64
}

// meanTallies computes a quiz view's mean per-outcome counts through
// one engine pass over the four graded columns, no grouping. The
// per-respondent outcome counts are small integers, so the blockwise
// sums are exact and the means are bit-identical to a sequential row
// loop over the tallies.
func (r *Results) meanTallies(view quiz.QuizView) (meanTallyResult, error) {
	res, err := query.Run(r.MainSource(), query.Query{Values: []query.Value{
		r.graded(view, quiz.OutcomeCorrect),
		r.graded(view, quiz.OutcomeIncorrect),
		r.graded(view, quiz.OutcomeDontKnow),
		r.graded(view, quiz.OutcomeUnanswered),
	}}, r.workers)
	if err != nil {
		return meanTallyResult{}, err
	}
	return meanTallyResult{
		Correct:    res.Mean(0, 0),
		Incorrect:  res.Mean(1, 0),
		DontKnow:   res.Mean(2, 0),
		Unanswered: res.Mean(3, 0),
	}, nil
}

// coreScores returns every respondent's core quiz score in respondent
// order, via an ungrouped engine collection.
func (r *Results) coreScores() ([]float64, error) {
	res, err := query.RunCollect(r.MainSource(), query.Query{
		Values: []query.Value{r.graded(quiz.QuizCore, quiz.OutcomeCorrect)},
	}, r.workers)
	if err != nil {
		return nil, err
	}
	return res.Groups[0], nil
}

// CoreScoreHistogram returns the distribution of core-quiz scores.
func (r *Results) CoreScoreHistogram() (stats.Histogram, error) {
	scores, err := r.coreScores()
	if err != nil {
		return stats.Histogram{}, err
	}
	return stats.NewHistogram(scores, 15), nil
}

// Figure13 renders the histogram of core quiz scores.
func (r *Results) Figure13() report.Table {
	t := report.Table{
		Title:  "Figure 13: Histogram of core quiz scores (15 questions; chance mean 7.5)",
		Header: []string{"Score", "Count", ""},
	}
	scores, err := r.coreScores()
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	h := stats.NewHistogram(scores, 15)
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	for score, count := range h.Counts {
		t.AddRow(report.I(score), report.I(count), report.Bar(float64(count), float64(maxC), 40))
	}
	s := stats.Summarize(scores)
	t.Notes = append(t.Notes, fmt.Sprintf("mean %.2f, sd %.2f, median %.1f (paper mean 8.5, chance 7.5)",
		s.Mean, s.StdDev, s.Median))
	return t
}

// Figure14 renders the per-question core quiz breakdown.
func (r *Results) Figure14() report.Table {
	t := report.Table{
		Title: "Figure 14: Core quiz question breakdown",
		Header: []string{"Question", "% Correct", "% Incorrect", "% Don't Know", "% Unanswered",
			"paper %C", "flags"},
	}
	qs := quiz.CoreQuestions()
	n := float64(r.Main.Cols.Len())
	totals, err := r.coreOutcomeCounts()
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	for i, q := range qs {
		c := int(totals[i][quiz.OutcomeCorrect])
		inc := int(totals[i][quiz.OutcomeIncorrect])
		dk := int(totals[i][quiz.OutcomeDontKnow])
		un := int(totals[i][quiz.OutcomeUnanswered])
		row := paperdata.Figure14Core[i]
		flags := ""
		pc := 100 * float64(c) / n
		if pc >= 44 && pc <= 62 {
			flags += "chance "
		}
		if float64(inc)+float64(dk) > float64(c)*2 && float64(inc) > float64(c) {
			flags += "wrong-majority"
		}
		t.AddRow(q.Label,
			report.Pct(pc),
			report.Pct(100*float64(inc)/n),
			report.Pct(100*float64(dk)/n),
			report.Pct(100*float64(un)/n),
			report.Pct(row.Correct),
			flags)
	}
	return t
}

// coreOutcomeKeyers returns one outcome keyer per core question, in
// paper order.
func coreOutcomeKeyers(s *colstore.Schema) []query.Keyer {
	keyers := make([]query.Keyer, len(quiz.CoreQuestions()))
	for qi := range keyers {
		keyers[qi] = quiz.CoreOutcomeKeyer(s, qi)
	}
	return keyers
}

// coreOutcomeCounts classifies every (respondent, core question) pair
// in one engine pass — 15 outcome keyers over a single block scan —
// and returns out[q][outcome]. Per-block count matrices merge
// additively, so the totals are identical at any worker count.
func (r *Results) coreOutcomeCounts() ([][]int64, error) {
	src := r.MainSource()
	return query.CountByKeys(src, coreOutcomeKeyers(src.Schema()), nil, r.workers)
}

// Figure15 renders the per-question optimization quiz breakdown.
func (r *Results) Figure15() report.Table {
	t := report.Table{
		Title: "Figure 15: Optimization quiz question breakdown",
		Header: []string{"Question", "% Correct", "% Incorrect", "% Don't Know", "% Unanswered",
			"paper %C", "paper %DK"},
	}
	qs := quiz.OptQuestions()
	d := r.Main.Cols
	n := float64(d.Len())
	keyers := make([]query.Keyer, len(qs))
	for qi := range qs {
		keyers[qi] = quiz.OptOutcomeKeyer(d.Schema, qi)
	}
	totals, err := query.CountByKeys(r.MainSource(), keyers, nil, r.workers)
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	for i, q := range qs {
		c := int(totals[i][quiz.OutcomeCorrect])
		inc := int(totals[i][quiz.OutcomeIncorrect])
		dk := int(totals[i][quiz.OutcomeDontKnow])
		un := int(totals[i][quiz.OutcomeUnanswered])
		row := paperdata.Figure15Opt[i]
		t.AddRow(q.Label,
			report.Pct(100*float64(c)/n),
			report.Pct(100*float64(inc)/n),
			report.Pct(100*float64(dk)/n),
			report.Pct(100*float64(un)/n),
			report.Pct(row.Correct), report.Pct(row.DontKnow))
	}
	return t
}

// factorFigure renders a grouped-means figure (16-21).
func (r *Results) factorFigure(num int, title, questionID string, core bool,
	paperEffect paperdata.FactorEffect, levelOrder []string) report.Table {
	t := report.Table{
		Title:  fmt.Sprintf("Figure %d: %s", num, title),
		Header: []string{"Level", "n", "mean correct", "sd", "paper mean"},
	}
	paperMeans := map[string]float64{}
	for _, lm := range paperEffect.Means {
		paperMeans[lm.Level] = lm.Mean
	}
	// Group scores by answer level through the engine: a single-choice
	// group-by collecting each group's exact score sequence. Per-block
	// buckets merge in block order, preserving respondent order within
	// each level, so downstream means/sds are bit-identical at any
	// worker count.
	s := r.Main.Cols.Schema
	ci := s.MustColumnIndex(questionID)
	col := s.Column(ci)
	view := quiz.QuizCore
	if !core {
		view = quiz.QuizOpt
	}
	res, err := query.RunCollect(r.MainSource(), query.Query{
		Key:    query.SingleKey{Col: ci, Options: col.Options},
		Values: []query.Value{r.graded(view, quiz.OutcomeCorrect)},
	}, r.workers)
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	for _, level := range levelOrder {
		var vs []float64
		if level == "(unanswered)" {
			vs = res.Groups[0]
		} else if code, ok := col.OptionCode(level); ok {
			vs = res.Groups[code]
		}
		if len(vs) == 0 {
			continue
		}
		pm := "-"
		if v, ok := paperMeans[level]; ok {
			pm = report.F(v)
		} else if v, ok := paperMeans["Other"]; ok {
			pm = report.F(v) + " (other)"
		}
		t.AddRow(level, report.I(len(vs)), report.F2(stats.Mean(vs)), report.F2(stats.StdDev(vs)), pm)
	}
	return t
}

func labels(entries []paperdata.CountEntry) []string {
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Label)
	}
	return out
}

// Figure16 renders the effect of Contributed Codebase Size on core quiz
// scores.
func (r *Results) Figure16() report.Table {
	order := []string{
		"<100 lines of code",
		"100 to 1,000 lines of code",
		"1,001 to 10,000 lines of code",
		"10,001 to 100,000 lines of code",
		"100,001 to 1,000,000 lines of code",
		">1,000,000 lines of code",
	}
	return r.factorFigure(16, "Effect of Contributed Codebase Size on core quiz scores",
		quiz.BGContribSize, true, paperdata.Figure16ContribSizeEffect, order)
}

// Figure17 renders the effect of Area on core quiz scores.
func (r *Results) Figure17() report.Table {
	return r.factorFigure(17, "Effect of Area on core quiz scores",
		quiz.BGArea, true, paperdata.Figure17AreaEffect, labels(paperdata.Figure2Areas))
}

// Figure18 renders the effect of Software Development Role on core quiz
// scores.
func (r *Results) Figure18() report.Table {
	return r.factorFigure(18, "Effect of Software Development Role on core quiz scores",
		quiz.BGRole, true, paperdata.Figure18RoleEffect, labels(paperdata.Figure5Roles))
}

// Figure19 renders the effect of Formal Training on core quiz scores.
func (r *Results) Figure19() report.Table {
	return r.factorFigure(19, "Effect of Formal Training (in floating point) on core quiz scores",
		quiz.BGFormalTraining, true, paperdata.Figure19TrainingEffect, labels(paperdata.Figure3FormalTraining))
}

// Figure20 renders the effect of Area on optimization quiz scores.
func (r *Results) Figure20() report.Table {
	return r.factorFigure(20, "Effect of Area on optimization quiz scores",
		quiz.BGArea, false, paperdata.Figure20OptAreaEffect, labels(paperdata.Figure2Areas))
}

// Figure21 renders the effect of Software Development Role on
// optimization quiz scores.
func (r *Results) Figure21() report.Table {
	return r.factorFigure(21, "Effect of Software Development Role on optimization quiz scores",
		quiz.BGRole, false, paperdata.Figure21OptRoleEffect, labels(paperdata.Figure5Roles))
}

// suspicionDistQuery computes a suspicion item's Likert distribution
// through the engine: a count-only group-by on the level column. The
// per-level counts rebuild the distribution bit-identically
// (stats.LikertDistFromCounts).
func suspicionDistQuery(src query.Source, itemID string, workers int) (stats.LikertDist, error) {
	s := src.Schema()
	ci := s.MustColumnIndex(itemID)
	scale := s.Column(ci).Scale
	res, err := query.Run(src, query.Query{
		Key: query.LikertKey{Col: ci, Scale: scale},
	}, workers)
	if err != nil {
		return stats.LikertDist{}, err
	}
	return stats.LikertDistFromCounts(res.Count[1:], scale), nil
}

// Figure22 renders the suspicion distributions for both cohorts.
func (r *Results) Figure22() report.Table {
	t := report.Table{
		Title:  "Figure 22: Distribution of suspicion for exceptional conditions (percent reporting each level)",
		Header: []string{"Group", "Condition", "1", "2", "3", "4", "5", "mean", "paper@5"},
	}
	for _, grp := range []struct {
		name  string
		src   query.Source
		paper []paperdata.SuspicionDist
	}{
		{"main", r.MainSource(), paperdata.Figure22Main},
		{"student", r.StudentSource(), paperdata.Figure22Student},
	} {
		for i, it := range quiz.SuspicionItems() {
			d, err := suspicionDistQuery(grp.src, it.ID, r.workers)
			if err != nil {
				t.Rows = nil
				t.Notes = append(t.Notes, err.Error())
				return t
			}
			t.AddRow(grp.name, it.Condition.String(),
				report.Pct(d.Percent[0]), report.Pct(d.Percent[1]), report.Pct(d.Percent[2]),
				report.Pct(d.Percent[3]), report.Pct(d.Percent[4]),
				report.F2(d.MeanLevel()), report.Pct(grp.paper[i].Percent[4]))
		}
	}
	t.Notes = append(t.Notes,
		"ground-truth ranking (monitor): Invalid(5) > Overflow(4) > Underflow(2) = Denorm(2) > Precision(1)")
	return t
}

// Figure renders any figure 1-22 by number.
func (r *Results) Figure(num int) report.Table {
	switch {
	case num >= 1 && num <= 11:
		return r.FigureBackground(num)
	case num == 12:
		return r.Figure12()
	case num == 13:
		return r.Figure13()
	case num == 14:
		return r.Figure14()
	case num == 15:
		return r.Figure15()
	case num == 16:
		return r.Figure16()
	case num == 17:
		return r.Figure17()
	case num == 18:
		return r.Figure18()
	case num == 19:
		return r.Figure19()
	case num == 20:
		return r.Figure20()
	case num == 21:
		return r.Figure21()
	case num == 22:
		return r.Figure22()
	}
	return report.Table{Title: fmt.Sprintf("unknown figure %d", num)}
}

// AllFigures renders every figure in order. With telemetry attached,
// the rendering is timed under a "figures" span with one child per
// figure.
func (r *Results) AllFigures() []report.Table {
	sp := r.telemetry.StartSpan("figures")
	out := make([]report.Table, 0, 22)
	for i := 1; i <= 22; i++ {
		c := sp.StartChild(fmt.Sprintf("figure-%02d", i))
		out = append(out, r.Figure(i))
		c.AddItems(1)
		c.End()
	}
	sp.AddItems(22)
	sp.End()
	return out
}
