package core

import (
	"fmt"

	"fpstudy/internal/paperdata"
	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
	"fpstudy/internal/stats"
)

// CalibrationReport quantifies how closely the regenerated data matches
// the paper's published aggregates: a chi-square goodness-of-fit per
// core question against the exact Figure 14 percentages, plus bootstrap
// confidence intervals for the Figure 12 means. It is the statistical
// backing for EXPERIMENTS.md.
func (r *Results) CalibrationReport() report.Table {
	t := report.Table{
		Title:  "Calibration: regenerated responses vs published distributions",
		Header: []string{"Question", "chi2", "df", "crit(5%)", "fit"},
	}
	n := len(r.MainDataset().Responses)
	fails := 0
	for i, q := range quiz.CoreQuestions() {
		row := paperdata.Figure14Core[i]
		var c, inc, dk, un int
		for _, resp := range r.MainDataset().Responses {
			switch quiz.ClassifyCore(resp, q) {
			case quiz.OutcomeCorrect:
				c++
			case quiz.OutcomeIncorrect:
				inc++
			case quiz.OutcomeDontKnow:
				dk++
			case quiz.OutcomeUnanswered:
				un++
			}
		}
		observed := []int{c, inc, dk, un}
		expected := []float64{row.Correct, row.Incorrect, row.DontKnow, row.Unanswered}
		stat, df := stats.ChiSquareGOF(observed, expected)
		crit := stats.ChiSquareCritical05(df)
		fit := "ok"
		if stat > crit {
			fit = "off"
			fails++
		}
		t.AddRow(q.Label, report.F2(stat), report.I(df), report.F2(crit), fit)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("n=%d; %d/%d questions within the 5%% chi-square band of the published distribution",
			n, 15-fails, 15))

	// Bootstrap CI on the headline mean.
	scores, err := r.coreScores()
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	lo, hi := stats.BootstrapMeanCI(scores, 0.95, 2000, r.Study.Seed)
	t.Notes = append(t.Notes,
		fmt.Sprintf("core mean %.2f, 95%% bootstrap CI [%.2f, %.2f]; paper 8.5; chance 7.5",
			stats.Mean(scores), lo, hi))
	inBand := lo <= paperdata.Figure12Core.Correct && paperdata.Figure12Core.Correct <= hi
	t.Notes = append(t.Notes, fmt.Sprintf("paper mean inside CI: %v", inBand))
	return t
}

// FactorAssociation computes Cramér's V between each single-choice
// background factor and a above/below-median split of core scores — the
// "no particularly strong factor" analysis of Section IV-B in effect
// size terms.
func (r *Results) FactorAssociation() report.Table {
	t := report.Table{
		Title:  "Factor association with core score (Cramér's V on above/below-median split)",
		Header: []string{"Factor", "levels", "V", "strength"},
	}
	scores, err := r.coreScores()
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	median := stats.Median(scores)

	factors := []struct {
		name string
		id   string
	}{
		{"Contributed Codebase Size", quiz.BGContribSize},
		{"Involved Codebase Size", quiz.BGInvolvedSize},
		{"Area", quiz.BGArea},
		{"Software Development Role", quiz.BGRole},
		{"Formal Training", quiz.BGFormalTraining},
		{"Position", quiz.BGPosition},
		{"Contributed FP Extent", quiz.BGContribExtent},
	}
	for _, f := range factors {
		levels := map[string]int{}
		var order []string
		for _, resp := range r.MainDataset().Responses {
			l := resp.Answer(f.id).Choice
			if _, ok := levels[l]; !ok {
				levels[l] = len(order)
				order = append(order, l)
			}
		}
		table := make([][]int, len(order))
		for i := range table {
			table[i] = make([]int, 2)
		}
		for i, resp := range r.MainDataset().Responses {
			l := levels[resp.Answer(f.id).Choice]
			col := 0
			if scores[i] > median {
				col = 1
			}
			table[l][col]++
		}
		v := stats.CramersV(table)
		strength := "negligible"
		switch {
		case v >= 0.5:
			strength = "strong"
		case v >= 0.3:
			strength = "moderate"
		case v >= 0.1:
			strength = "weak"
		}
		t.AddRow(f.name, report.I(len(order)), report.F2(v), strength)
	}
	t.Notes = append(t.Notes,
		"paper: several factors are somewhat predictive, none has an outsize impact — expect weak/moderate at best")
	return t
}
