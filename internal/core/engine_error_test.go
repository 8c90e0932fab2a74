package core

import (
	"errors"
	"strings"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/report"
)

var errInjected = errors.New("injected reader failure")

// failingSource is a query source whose block readers cannot be
// opened, standing in for an unreadable on-disk cohort.
type failingSource struct{ query.Source }

func (failingSource) NewReader([]int) (query.BlockReader, error) { return nil, errInjected }

// notesError reports whether a table rendered no rows and carries the
// injected error as a note.
func notesError(tab report.Table) bool {
	return len(tab.Rows) == 0 && strings.Contains(strings.Join(tab.Notes, "\n"), errInjected.Error())
}

// engineErrorClaim reports whether the claims fail with the injected
// error as an engine-error claim.
func engineErrorClaim(claims []Claim) bool {
	for _, c := range claims {
		if c.Name == "engine-error" && !c.Pass && strings.Contains(c.Detail, errInjected.Error()) {
			return !AllClaimsPass(claims)
		}
	}
	return false
}

// TestEngineErrorsSurface pins that a query-engine failure reaches the
// output instead of rendering zeros: the helpers return it, Figures 12,
// 13 and 22 and the calibration, association, item and intervention
// analyses print it as a note, and the headline claims fail with an
// engine-error claim (which makes fpreport exit 1).
func TestEngineErrorsSurface(t *testing.T) {
	fresh := func() *Results {
		return Study{Seed: 42, NMain: 199, NStudent: 52}.Run()
	}
	r := fresh()
	r.mainSrc = failingSource{r.MainSource()}

	if _, err := r.meanTallies(quiz.QuizCore); !errors.Is(err, errInjected) {
		t.Errorf("meanTallies error = %v", err)
	}
	if _, err := r.coreScores(); !errors.Is(err, errInjected) {
		t.Errorf("coreScores error = %v", err)
	}
	if _, err := r.meanCoreByLevel(quiz.BGContribSize, ">1,000,000 lines of code"); !errors.Is(err, errInjected) {
		t.Errorf("meanCoreByLevel error = %v", err)
	}

	if _, err := r.coreOutcomeCounts(); !errors.Is(err, errInjected) {
		t.Errorf("coreOutcomeCounts error = %v", err)
	}
	if _, err := r.RunTrainingIntervention("None"); !errors.Is(err, errInjected) {
		t.Errorf("RunTrainingIntervention error = %v", err)
	}

	for _, fig := range []int{12, 13, 22} {
		if tab := r.Figure(fig); !notesError(tab) {
			t.Errorf("figure %d does not report the engine error:\n%s", fig, tab.String())
		}
	}
	for name, analysis := range map[string]func() report.Table{
		"calibration":  r.CalibrationReport,
		"association":  r.FactorAssociation,
		"items":        r.ItemAnalysis,
		"intervention": r.InterventionReport,
	} {
		if tab := analysis(); !notesError(tab) {
			t.Errorf("%s analysis does not report the engine error:\n%s", name, tab.String())
		}
	}
	if claims := r.HeadlineClaims(); !engineErrorClaim(claims) {
		t.Errorf("headline claims do not fail on the engine error: %+v", claims)
	}

	// Only the student cohort unreadable: Figure 22 and the suspicion
	// claims still surface it.
	r = fresh()
	r.studentSrc = failingSource{r.StudentSource()}
	if tab := r.Figure22(); !notesError(tab) {
		t.Errorf("figure 22 does not report the student engine error:\n%s", tab.String())
	}
	if claims := r.HeadlineClaims(); !engineErrorClaim(claims) {
		t.Errorf("suspicion claims do not fail on the engine error: %+v", claims)
	}

	// Only the intervention's treated cohorts unreadable.
	r = fresh()
	r.treatedSource = func(d *colstore.Dataset) query.Source {
		return failingSource{query.NewDatasetSource(d)}
	}
	if _, err := r.RunTrainingIntervention("None"); !errors.Is(err, errInjected) {
		t.Errorf("RunTrainingIntervention treated-grading error = %v", err)
	}
	if tab := r.InterventionReport(); !notesError(tab) {
		t.Errorf("intervention does not report the treated-grading error:\n%s", tab.String())
	}
}
