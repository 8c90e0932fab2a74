package core

import (
	"fmt"

	"fpstudy/internal/paperdata"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/stats"
)

// Claim is one of the paper's headline findings, checked against the
// regenerated data.
type Claim struct {
	Name   string
	Detail string
	Pass   bool
}

// HeadlineClaims evaluates the paper's main textual findings (Section
// IV) against this run's data. Every claim should pass on a calibrated
// cohort; the benchmark harness prints them.
//
// Every claim runs through the query engine over the columnar storage,
// allocation-light, and the numbers are bit-identical at any worker
// count.
func (r *Results) HeadlineClaims() []Claim {
	var claims []Claim
	add := func(name string, pass bool, detail string, args ...interface{}) {
		claims = append(claims, Claim{Name: name, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
	}

	core, err := r.meanTallies(quiz.QuizCore)
	var opt meanTallyResult
	if err == nil {
		opt, err = r.meanTallies(quiz.QuizOpt)
	}
	if err != nil {
		add("engine-error", false, "%v", err)
		return claims
	}

	// "The score for the core quiz was 8.5/15, which is only slightly
	// better than would be expected by chance (7.5/15)."
	add("core-slightly-above-chance",
		core.Correct > quiz.CoreChance && core.Correct < 10.5,
		"mean core correct %.2f vs chance %.1f (paper: 8.5)", core.Correct, quiz.CoreChance)

	// "The incidence of Don't Know was < 15% for the core quiz."
	dkFrac := core.DontKnow / 15
	add("core-dk-below-15pct", dkFrac < 0.17,
		"core Don't Know rate %.1f%% (paper: <15%%)", 100*dkFrac)

	// "In the optimization quiz, participants answered Don't Know over
	// 2/3 of the time."
	optDKFrac := opt.DontKnow / 3
	add("opt-dk-over-two-thirds", optDKFrac > 0.6,
		"optimization Don't Know rate %.1f%% (paper: >2/3)", 100*optDKFrac)

	// One engine pass classifies every core question's outcomes; the
	// wrong-majority and chance-band claims both read off it.
	s := r.Main.Cols.Schema
	qs := quiz.CoreQuestions()
	outcomes, err := r.coreOutcomeCounts()
	if err != nil {
		add("engine-error", false, "%v", err)
		return claims
	}

	// Identity and Divide By Zero answered incorrectly by most
	// participants.
	for _, id := range []string{"core.identity", "core.divzero"} {
		qi := -1
		for i, q := range qs {
			if q.ID == id {
				qi = i
				break
			}
		}
		q := qs[qi]
		c := int(outcomes[qi][quiz.OutcomeCorrect])
		inc := int(outcomes[qi][quiz.OutcomeIncorrect])
		add("wrong-majority-"+q.Label, inc > c*2,
			"%s: %d incorrect vs %d correct (paper: ~77%% incorrect)", q.Label, inc, c)
	}

	// Factor: codebase size is the most predictive factor, topping out
	// around 11/15 for the largest codebases.
	big, err := r.meanCoreByLevel(quiz.BGContribSize, ">1,000,000 lines of code")
	var small float64
	if err == nil {
		small, err = r.meanCoreByLevel(quiz.BGContribSize, "100 to 1,000 lines of code")
	}
	if err != nil {
		add("engine-error", false, "%v", err)
		return claims
	}
	add("codebase-size-effect", big > small+1,
		"mean core score: >1M LoC %.2f vs 100-1k LoC %.2f (paper: ~11 vs ~7.5)", big, small)

	// Area: physical-science/engineering developers perform at chance.
	// A two-label option-set filter feeding a grouped-free mean.
	areaCi := s.MustColumnIndex(quiz.BGArea)
	areaCol := s.Column(areaCi)
	peRes, err := query.Run(r.MainSource(), query.Query{
		Filter: []query.Predicate{query.I32SetOf(areaCi,
			areaCol.MustOptionCode("Other Physical Science Field"),
			areaCol.MustOptionCode("Other Engineering Field"))},
		Values: []query.Value{r.graded(quiz.QuizCore, quiz.OutcomeCorrect)},
	}, r.workers)
	if err != nil {
		add("engine-error", false, "%v", err)
		return claims
	}
	pe := peRes.Mean(0, 0)
	add("physsci-at-chance", pe > 6 && pe < 9,
		"PhysSci/Eng mean %.2f vs chance 7.5 (paper: at chance)", pe)

	// Suspicion: Invalid most suspicious, then Overflow, then the rest;
	// ~1/3 under-rate Invalid. Students are less suspicious of
	// Underflow and Denorm.
	var inv, ovf, und, mDen, sUnd, sDen stats.LikertDist
	for _, q := range []struct {
		dist *stats.LikertDist
		src  query.Source
		id   string
	}{
		{&inv, r.MainSource(), "susp.invalid"},
		{&ovf, r.MainSource(), "susp.overflow"},
		{&und, r.MainSource(), "susp.underflow"},
		{&mDen, r.MainSource(), "susp.denorm"},
		{&sUnd, r.StudentSource(), "susp.underflow"},
		{&sDen, r.StudentSource(), "susp.denorm"},
	} {
		if *q.dist, err = suspicionDistQuery(q.src, q.id, r.workers); err != nil {
			add("engine-error", false, "%v", err)
			return claims
		}
	}
	add("suspicion-ordering",
		inv.MeanLevel() > ovf.MeanLevel() && ovf.MeanLevel() > und.MeanLevel(),
		"mean suspicion invalid %.2f > overflow %.2f > underflow %.2f",
		inv.MeanLevel(), ovf.MeanLevel(), und.MeanLevel())
	underRate := 100 - inv.Percent[4]
	add("invalid-underrated-by-third", underRate > 20 && underRate < 50,
		"%.1f%% rate Invalid below maximum suspicion (paper: ~1/3)", underRate)

	add("students-relaxed-underflow-denorm",
		sUnd.MeanLevel() < und.MeanLevel() && sDen.MeanLevel() < mDen.MeanLevel(),
		"students underflow %.2f < main %.2f; denorm %.2f < %.2f",
		sUnd.MeanLevel(), und.MeanLevel(), sDen.MeanLevel(), mDen.MeanLevel())

	// The per-question shape: the six chance-level questions stay in a
	// chance band, per Figure 14.
	badBand := 0
	n := float64(r.Main.Cols.Len())
	for i, row := range paperdata.Figure14Core {
		if !row.ChanceLevel {
			continue
		}
		pc := 100 * float64(outcomes[i][quiz.OutcomeCorrect]) / n
		if pc < 40 || pc > 68 {
			badBand++
		}
	}
	add("chance-level-questions-band", badBand == 0,
		"%d of 6 chance-level questions left the 40-68%% band", badBand)

	return claims
}

// meanCoreByLevel averages core scores over respondents with the given
// background answer: a filtered ungrouped mean through the engine.
func (r *Results) meanCoreByLevel(questionID, level string) (float64, error) {
	s := r.Main.Cols.Schema
	ci := s.MustColumnIndex(questionID)
	res, err := query.Run(r.MainSource(), query.Query{
		Filter: []query.Predicate{query.I32SetOf(ci, s.Column(ci).MustOptionCode(level))},
		Values: []query.Value{r.graded(quiz.QuizCore, quiz.OutcomeCorrect)},
	}, r.workers)
	if err != nil {
		return 0, err
	}
	return res.Mean(0, 0), nil
}

// AllClaimsPass reports whether every headline claim held.
func AllClaimsPass(claims []Claim) bool {
	for _, c := range claims {
		if !c.Pass {
			return false
		}
	}
	return true
}
