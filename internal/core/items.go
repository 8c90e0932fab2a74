package core

import (
	"fmt"

	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
	"fpstudy/internal/respondent"
	"fpstudy/internal/stats"
)

// ItemAnalysis runs classical test-theory item analysis on the core
// quiz: per-question difficulty (fraction correct), discrimination
// (point-biserial correlation of the item with the rest-of-test score),
// and the don't-know rate. The paper's chance-level questions should
// appear as hard items; well-understood properties (Distributivity,
// Ordering) as easy ones; a sound instrument shows positive
// discrimination nearly everywhere.
func (r *Results) ItemAnalysis() report.Table {
	t := report.Table{
		Title:  "Item analysis of the core quiz (classical test theory)",
		Header: []string{"Question", "difficulty (pCorrect)", "discrimination (r_pb)", "DK rate", "grade"},
	}
	qs := quiz.CoreQuestions()
	n := len(r.MainDataset().Responses)

	// Per-respondent per-item correctness and total scores.
	correct := make([][]int, len(qs))
	for i := range correct {
		correct[i] = make([]int, n)
	}
	totals := make([]float64, n)
	dkCount := make([]int, len(qs))
	for j, resp := range r.MainDataset().Responses {
		for i, q := range qs {
			switch quiz.ClassifyCore(resp, q) {
			case quiz.OutcomeCorrect:
				correct[i][j] = 1
				totals[j]++
			case quiz.OutcomeDontKnow:
				dkCount[i]++
			}
		}
	}

	for i, q := range qs {
		diff := 0.0
		for _, c := range correct[i] {
			diff += float64(c)
		}
		diff /= float64(n)
		// Rest score: total minus this item, to avoid part-whole
		// inflation.
		rest := make([]float64, n)
		for j := range rest {
			rest[j] = totals[j] - float64(correct[i][j])
		}
		disc := stats.PointBiserial(correct[i], rest)
		grade := "ok"
		switch {
		case disc < 0.05:
			grade = "non-discriminating"
		case diff < 0.25:
			grade = "very hard"
		case diff > 0.9:
			grade = "very easy"
		}
		t.AddRow(q.Label, report.F2(diff), report.F2(disc),
			report.Pct(100*float64(dkCount[i])/float64(n)), grade)
	}
	t.Notes = append(t.Notes,
		"difficulty ~0.5 with positive discrimination = informative item; the paper's chance-level questions cluster there")
	return t
}

// TrainingIntervention is the policy experiment behind the paper's
// "develop effective training" action: re-run the study with every
// respondent's formal training upgraded to the given level and report
// the predicted score change under the fitted model.
//
// The paper (and this model, calibrated to it) predicts a small gain —
// quantifying exactly why the authors argue the community "has not
// found the right training approach yet".
type TrainingIntervention struct {
	Level       string
	BaseMean    float64
	TreatedMean float64
	Gain        float64
}

// RunTrainingIntervention simulates the intervention at the study's
// seed and size.
func (r *Results) RunTrainingIntervention(level string) (TrainingIntervention, error) {
	base, err := r.meanTallies(quiz.QuizCore)
	if err != nil {
		return TrainingIntervention{}, err
	}
	return r.intervention(level, base.Correct), nil
}

// intervention simulates forcing the training level against the
// observed mean core score base.
func (r *Results) intervention(level string, base float64) TrainingIntervention {
	treated := Study{
		Seed:     r.Study.Seed,
		NMain:    r.Study.NMain,
		NStudent: 0,
	}.runWithTraining(level)
	return TrainingIntervention{
		Level:       level,
		BaseMean:    base,
		TreatedMean: treated,
		Gain:        treated - base,
	}
}

// runWithTraining generates a cohort whose formal-training factor is
// forced to the given level and returns the mean core score.
func (s Study) runWithTraining(level string) float64 {
	pop := respondent.GenerateMainWith(s.Seed, s.NMain, func(p *respondent.Profile) {
		p.FormalTraining = level
	})
	var sum float64
	for _, resp := range pop.Dataset.Responses {
		sum += float64(quiz.ScoreCore(resp).Correct)
	}
	return sum / float64(len(pop.Dataset.Responses))
}

// InterventionReport renders the what-if table across training levels.
func (r *Results) InterventionReport() report.Table {
	t := report.Table{
		Title:  "Policy experiment: force everyone's formal floating point training to a level",
		Header: []string{"Forced level", "mean core score", "gain vs observed", "verdict"},
	}
	observed, err := r.meanTallies(quiz.QuizCore)
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	base := observed.Correct
	for _, level := range []string{
		"None",
		"One or more lectures in course",
		"One or more weeks within a course",
		"One or more courses",
	} {
		iv := r.intervention(level, base)
		verdict := "small effect"
		if iv.Gain > 1.5 {
			verdict = "large effect"
		}
		if iv.Gain < -1.5 {
			verdict = "large harm"
		}
		t.AddRow(level, report.F2(iv.TreatedMean),
			fmt.Sprintf("%+.2f", iv.TreatedMean-base), verdict)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("observed mean: %.2f; the paper: training as currently delivered buys ~1 question at best", base))
	return t
}
