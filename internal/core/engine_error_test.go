package core

import (
	"errors"
	"strings"
	"testing"

	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
)

var errInjected = errors.New("injected reader failure")

// failingSource is a query source whose block readers cannot be
// opened, standing in for an unreadable on-disk cohort.
type failingSource struct{ query.Source }

func (failingSource) NewReader([]int) (query.BlockReader, error) { return nil, errInjected }

// TestEngineErrorsSurface pins that a query-engine failure reaches the
// output instead of rendering zeros: the helpers return it, Figures 12
// and 13 print it as a note, and the headline claims fail with an
// engine-error claim (which makes fpreport exit 1).
func TestEngineErrorsSurface(t *testing.T) {
	r := Study{Seed: 42, NMain: 199, NStudent: 52, ColumnarOnly: true}.Run()
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

	for _, fig := range []int{12, 13} {
		tab := r.Figure(fig)
		if len(tab.Rows) != 0 || !strings.Contains(strings.Join(tab.Notes, "\n"), errInjected.Error()) {
			t.Errorf("figure %d does not report the engine error:\n%s", fig, tab.String())
		}
	}

	claims := r.HeadlineClaims()
	found := false
	for _, c := range claims {
		if c.Name == "engine-error" && !c.Pass && strings.Contains(c.Detail, errInjected.Error()) {
			found = true
		}
	}
	if !found || AllClaimsPass(claims) {
		t.Errorf("headline claims do not fail on the engine error: %+v", claims)
	}
}
