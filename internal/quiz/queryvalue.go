package quiz

import (
	"fmt"
	"strings"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
)

// scoreValue is a query.Value counting one grading outcome per
// respondent across a quiz view's questions, graded per block by the
// same kernel as Grade. It reads the answer columns, so it serves
// streamed sources that have no graded columns: grading an n=10M
// on-disk cohort needs no per-respondent materialization.
type scoreValue struct {
	t       *ScoreTable
	view    QuizView
	outcome PerQuestionOutcome
}

func (v scoreValue) items() []colItem {
	if v.view == QuizCore {
		return v.t.core
	}
	return v.t.optTF
}

func (v scoreValue) Columns() []int {
	var cols []int
	for _, it := range v.items() {
		cols = append(cols, it.ci)
	}
	if v.view == QuizOptAll {
		cols = append(cols, v.t.levelCol)
	}
	return cols
}

func (v scoreValue) Gather(b *query.Block, dst []float64, ok []bool) {
	var buf [query.BlockRows]uint32
	acc := buf[:b.N]
	accumulateTF(b, v.items(), acc)
	if v.view == QuizOptAll {
		v.t.accumulateLevel(b, acc)
	}
	shift := 8 * uint(v.outcome)
	for j, a := range acc {
		dst[j], ok[j] = float64(uint8(a>>shift)), true
	}
}

// QueryValue resolves a quiz measure name for the query engine:
// "<quiz>.<field>" with quiz one of core (15 T/F questions), opt (the
// three T/F optimization questions, the Figure 12 view), or optall
// (all four), and field one of score (a synonym: correct), incorrect,
// dontknow, unanswered. The value of a respondent is their count of
// that outcome — e.g. core.score is the core quiz score graded against
// the oracle answer key. The value grades the answer columns it binds;
// over a cohort already graded by Grade, a query.SliceValue over the
// matching OutcomeCounts column reads the same numbers without
// re-grading.
func QueryValue(s *colstore.Schema, name string) (query.Value, error) {
	quizName, field, ok := strings.Cut(name, ".")
	if !ok {
		return nil, fmt.Errorf("quiz: unknown value %q (want <quiz>.<field>, e.g. core.score)", name)
	}
	v := scoreValue{t: ScoreTableFor(s)}
	switch quizName {
	case "core":
		v.view = QuizCore
	case "opt":
		v.view = QuizOpt
	case "optall":
		v.view = QuizOptAll
	default:
		return nil, fmt.Errorf("quiz: unknown quiz %q (want core, opt, or optall)", quizName)
	}
	switch field {
	case "score", "correct":
		v.outcome = OutcomeCorrect
	case "incorrect":
		v.outcome = OutcomeIncorrect
	case "dontknow":
		v.outcome = OutcomeDontKnow
	case "unanswered":
		v.outcome = OutcomeUnanswered
	default:
		return nil, fmt.Errorf("quiz: unknown field %q (want score, incorrect, dontknow, or unanswered)", field)
	}
	return v, nil
}

// outcomeLabels indexes PerQuestionOutcome.
var outcomeLabels = []string{"correct", "incorrect", "dontknow", "unanswered"}

// tfOutcomeKey groups respondents by their outcome on one T/F quiz
// question (key = PerQuestionOutcome).
type tfOutcomeKey struct {
	it colItem
}

func (k tfOutcomeKey) Columns() []int   { return []int{k.it.ci} }
func (k tfOutcomeKey) Cardinality() int { return 4 }
func (k tfOutcomeKey) Labels() []string { return outcomeLabels }

func (k tfOutcomeKey) Keys(b *query.Block, dst []int32) {
	col := b.U8(k.it.ci)
	for j := range dst {
		dst[j] = int32(classifyTFCode(col[j], k.it.correct))
	}
}

// levelOutcomeKey groups respondents by their outcome on the
// Standard-compliant Level question.
type levelOutcomeKey struct {
	t *ScoreTable
}

func (k levelOutcomeKey) Columns() []int   { return []int{k.t.levelCol} }
func (k levelOutcomeKey) Cardinality() int { return 4 }
func (k levelOutcomeKey) Labels() []string { return outcomeLabels }

func (k levelOutcomeKey) Keys(b *query.Block, dst []int32) {
	col := b.I32(k.t.levelCol)
	for j := range dst {
		dst[j] = int32(k.t.classifyLevelCode(col[j]))
	}
}

// CoreOutcomeKeyer keys respondents by their outcome on core question
// k (paper order).
func CoreOutcomeKeyer(s *colstore.Schema, k int) query.Keyer {
	return tfOutcomeKey{it: ScoreTableFor(s).core[k]}
}

// OptOutcomeKeyer keys respondents by their outcome on optimization
// question k (paper order: MADD, FTZ, Level, Fast-math).
func OptOutcomeKeyer(s *colstore.Schema, k int) query.Keyer {
	t := ScoreTableFor(s)
	switch k {
	case 0, 1:
		return tfOutcomeKey{it: t.optTF[k]}
	case 2:
		return levelOutcomeKey{t: t}
	default:
		return tfOutcomeKey{it: t.optTF[2]}
	}
}
