package quiz

import (
	"sync"

	"fpstudy/internal/survey"
)

// The oracles run real property checks (tens of thousands of softfloat
// operations for some questions), so scoring caches the derived answer
// key — and the per-question scoring metadata — after the first
// evaluation. The cache is computed once under a sync.Once and then
// shared read-only, so any number of grading goroutines can score
// concurrently without re-running an oracle or taking a lock.
var (
	answerKeyOnce sync.Once
	coreAnswerKey map[string]string
	optAnswerKey  map[string]string

	// coreItems/optItems are the flattened scoring tables: question IDs
	// and correct answers in paper order. Grading hot loops iterate
	// these instead of rebuilding the full question set (with its
	// oracle closures) per respondent.
	coreItems []scoredItem
	optItems  []scoredItem
)

// scoredItem is the minimal per-question data needed to grade one
// answer.
type scoredItem struct {
	id      string
	correct string // correct answer string (T/F or choice)
	isTF    bool
}

func buildAnswerKeys() {
	coreAnswerKey = map[string]string{}
	for _, q := range CoreQuestions() {
		coreAnswerKey[q.ID] = q.CorrectAnswer()
		coreItems = append(coreItems, scoredItem{
			id: q.ID, correct: coreAnswerKey[q.ID], isTF: true,
		})
	}
	optAnswerKey = map[string]string{}
	for _, q := range OptQuestions() {
		optAnswerKey[q.ID] = q.CorrectAnswer()
		optItems = append(optItems, scoredItem{
			id: q.ID, correct: optAnswerKey[q.ID], isTF: q.IsTrueFalse(),
		})
	}
}

func answerKeys() (map[string]string, map[string]string) {
	answerKeyOnce.Do(buildAnswerKeys)
	return coreAnswerKey, optAnswerKey
}

// scoreItems returns the cached flattened scoring tables.
func scoreItems() (core, opt []scoredItem) {
	answerKeyOnce.Do(buildAnswerKeys)
	return coreItems, optItems
}

// CoreAnswer returns the cached oracle-derived correct answer string
// for a core question ID.
func CoreAnswer(id string) string {
	core, _ := answerKeys()
	return core[id]
}

// OptAnswer returns the cached oracle-derived correct answer string for
// an optimization question ID.
func OptAnswer(id string) string {
	_, opt := answerKeys()
	return opt[id]
}

// Tally counts quiz outcomes for one participant.
type Tally struct {
	Correct    int
	Incorrect  int
	DontKnow   int
	Unanswered int
}

// Total returns the number of questions tallied.
func (t Tally) Total() int { return t.Correct + t.Incorrect + t.DontKnow + t.Unanswered }

// Add accumulates another tally.
func (t *Tally) Add(o Tally) {
	t.Correct += o.Correct
	t.Incorrect += o.Incorrect
	t.DontKnow += o.DontKnow
	t.Unanswered += o.Unanswered
}

// count classifies one answer against the correct string and
// increments the matching bucket.
func (t *Tally) count(a survey.Answer, correct string) {
	switch {
	case a.IsUnanswered():
		t.Unanswered++
	case a.Choice == survey.AnswerDontKnow:
		t.DontKnow++
	case a.Choice == correct:
		t.Correct++
	default:
		t.Incorrect++
	}
}

// ScoreCore grades the 15 core questions of a response.
func ScoreCore(r survey.Response) Tally {
	items, _ := scoreItems()
	var t Tally
	for _, it := range items {
		t.count(r.Answer(it.id), it.correct)
	}
	return t
}

// ScoreOpt grades the optimization quiz. All four questions are
// tallied; the Standard-compliant Level question is a single choice
// whose "don't know" is an explicit option handled by the same
// classification.
func ScoreOpt(r survey.Response) Tally {
	_, items := scoreItems()
	var t Tally
	for _, it := range items {
		t.count(r.Answer(it.id), it.correct)
	}
	return t
}

// ScoreOptScored grades only the three true/false optimization
// questions — the view the paper's Figure 12 reports (the
// Standard-compliant Level choice question is excluded there because it
// is not T/F).
func ScoreOptScored(r survey.Response) Tally {
	_, items := scoreItems()
	var t Tally
	for _, it := range items {
		if !it.isTF {
			continue
		}
		t.count(r.Answer(it.id), it.correct)
	}
	return t
}

// CoreChance is the expected number of correct core answers under
// uniform random true/false guessing (15 questions * 1/2).
const CoreChance = 7.5

// OptChance is the expected correct count guessing the three T/F
// optimization questions (Standard-compliant Level excluded, per the
// paper's Figure 12 note).
const OptChance = 1.5

// PerQuestionOutcome classifies one response's answer to one question.
type PerQuestionOutcome int

const (
	OutcomeCorrect PerQuestionOutcome = iota
	OutcomeIncorrect
	OutcomeDontKnow
	OutcomeUnanswered
)

// ClassifyCore returns the outcome of a response on one core question.
func ClassifyCore(r survey.Response, q CoreQuestion) PerQuestionOutcome {
	return classify(r.Answer(q.ID), CoreAnswer(q.ID))
}

// ClassifyOpt returns the outcome of a response on one optimization
// question.
func ClassifyOpt(r survey.Response, q OptQuestion) PerQuestionOutcome {
	if q.IsTrueFalse() {
		return classify(r.Answer(q.ID), OptAnswer(q.ID))
	}
	a := r.Answer(q.ID)
	switch {
	case a.IsUnanswered():
		return OutcomeUnanswered
	case a.Choice == survey.AnswerDontKnow:
		return OutcomeDontKnow
	case a.Choice == q.CorrectChoice:
		return OutcomeCorrect
	}
	return OutcomeIncorrect
}

func classify(a survey.Answer, correct string) PerQuestionOutcome {
	switch {
	case a.IsUnanswered():
		return OutcomeUnanswered
	case a.Choice == survey.AnswerDontKnow:
		return OutcomeDontKnow
	case a.Choice == correct:
		return OutcomeCorrect
	}
	return OutcomeIncorrect
}
