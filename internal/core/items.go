package core

import (
	"fmt"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
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
	n := r.Main.Cols.Len()
	src := r.MainSource()
	// Per-respondent outcome on every item, one engine scan.
	outcomes, err := query.RowKeys(src, coreOutcomeKeyers(src.Schema()), r.workers)
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	// The total score is the graded core-correct count.
	totals := r.Outcomes.Column(quiz.QuizCore, quiz.OutcomeCorrect)

	correct := make([]int, n)
	rest := make([]float64, n)
	for i, q := range qs {
		diff := 0.0
		dk := 0
		for j, o := range outcomes[i] {
			correct[j] = 0
			switch quiz.PerQuestionOutcome(o) {
			case quiz.OutcomeCorrect:
				correct[j] = 1
				diff++
			case quiz.OutcomeDontKnow:
				dk++
			}
			// Rest score: total minus this item, to avoid part-whole
			// inflation.
			rest[j] = float64(totals[j]) - float64(correct[j])
		}
		diff /= float64(n)
		disc := stats.PointBiserial(correct, rest)
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
			report.Pct(100*float64(dk)/float64(n)), grade)
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

// trainingLevels are the formal-training levels InterventionReport
// forces, in table order.
var trainingLevels = []string{
	"None",
	"One or more lectures in course",
	"One or more weeks within a course",
	"One or more courses",
}

// RunTrainingIntervention simulates the intervention at the study's
// seed and size.
func (r *Results) RunTrainingIntervention(level string) (TrainingIntervention, error) {
	base, err := r.meanTallies(quiz.QuizCore)
	if err != nil {
		return TrainingIntervention{}, err
	}
	ivs, err := r.interventions(base.Correct, []string{level})
	if err != nil {
		return TrainingIntervention{}, err
	}
	return ivs[0], nil
}

// interventions simulates forcing each training level against the
// observed mean core score base. One calibration on the untreated cohort
// serves every level; each treated cohort is graded and dropped before
// the next is sampled.
func (r *Results) interventions(base float64, levels []string) ([]TrainingIntervention, error) {
	overrides := make([]func(*respondent.Profile), len(levels))
	for k, level := range levels {
		overrides[k] = respondent.ForceTraining(level)
	}
	ivs := make([]TrainingIntervention, len(levels))
	err := respondent.GenerateTreatedColumnar(r.Study.Seed, r.Study.NMain, r.workers, overrides,
		func(k int, d *colstore.Dataset) error {
			treated, err := r.meanCoreCorrect(d)
			if err != nil {
				return err
			}
			ivs[k] = TrainingIntervention{
				Level:       levels[k],
				BaseMean:    base,
				TreatedMean: treated,
				Gain:        treated - base,
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return ivs, nil
}

// meanCoreCorrect grades a treated cohort and returns its mean core
// score. The integer sum is exact, so the mean matches a float64 row
// loop bit for bit.
func (r *Results) meanCoreCorrect(d *colstore.Dataset) (float64, error) {
	var src query.Source = query.NewDatasetSource(d)
	if r.treatedSource != nil {
		src = r.treatedSource(d)
	}
	g, err := quiz.Grade(src, r.workers)
	if err != nil {
		return 0, err
	}
	sum := 0
	for _, c := range g.Column(quiz.QuizCore, quiz.OutcomeCorrect) {
		sum += int(c)
	}
	return float64(sum) / float64(d.Len()), nil
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
	ivs, err := r.interventions(base, trainingLevels)
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	for _, iv := range ivs {
		verdict := "small effect"
		if iv.Gain > 1.5 {
			verdict = "large effect"
		}
		if iv.Gain < -1.5 {
			verdict = "large harm"
		}
		t.AddRow(iv.Level, report.F2(iv.TreatedMean),
			fmt.Sprintf("%+.2f", iv.TreatedMean-base), verdict)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("observed mean: %.2f; the paper: training as currently delivered buys ~1 question at best", base))
	return t
}
