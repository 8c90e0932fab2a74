package quiz

import (
	"fmt"
	"sync"
	"time"

	"fpstudy/internal/colstore"
	"fpstudy/internal/parallel"
	"fpstudy/internal/query"
	"fpstudy/internal/survey"
	"fpstudy/internal/telemetry"
)

// Columns returns the interned columnar schema of the paper's
// instrument. It is built once and shared read-only; every columnar
// dataset in the pipeline (generation, grading, figure tallies) hangs
// off this schema.
func Columns() *colstore.Schema {
	schemaOnce.Do(func() { schema = colstore.MustSchema(Instrument()) })
	return schema
}

var (
	schemaOnce sync.Once
	schema     *colstore.Schema
)

// tfCorrectCode converts an oracle answer string to its truefalse code.
func tfCorrectCode(answer string) uint8 {
	if answer == survey.AnswerTrue {
		return colstore.TFTrue
	}
	return colstore.TFFalse
}

// colItem is the columnar grading record of one T/F question: its
// column index, the correct code, and the question's grading lookup
// table (see outcomeInc).
type colItem struct {
	ci      int
	correct uint8
	lut     *[256]uint32
}

// outcomeInc is the packed increment of one outcome. The block kernel
// keeps one uint32 per respondent holding four byte-wide counters, one
// per PerQuestionOutcome; grading a cell adds outcomeInc of its
// outcome, so a quiz of up to 255 questions cannot carry between
// counters.
func outcomeInc(o PerQuestionOutcome) uint32 { return 1 << (8 * uint(o)) }

// ScoreTable is the oracle answer key bound to a schema's column
// indices: the one-stop grading table for columnar datasets. The
// ieee754 oracles behind the answer key run once per (question, mode)
// for the whole process — the canonical schema's table is built under a
// sync.Once and shared read-only — so grading and figure loops consult
// pure in-memory codes no matter how many respondents they touch.
type ScoreTable struct {
	core  []colItem // 15 core questions, paper order
	optTF []colItem // the three T/F optimization questions, paper order
	// The Standard-compliant Level single-choice question; levelLUT
	// maps every declared option code (and 0, unanswered) to its
	// outcome increment.
	levelCol     int
	levelCorrect int32
	levelDK      int32
	levelLUT     []uint32
}

var (
	colScoreOnce sync.Once
	colScore     *ScoreTable
)

// tfItem builds the grading record of a T/F question. Every code the
// lookup table can be indexed with gets the outcome classifyTFCode
// gives it, so the table needs no range check.
func tfItem(ci int, correct uint8) colItem {
	lut := new([256]uint32)
	for code := range lut {
		lut[code] = outcomeInc(classifyTFCode(uint8(code), correct))
	}
	return colItem{ci: ci, correct: correct, lut: lut}
}

// buildColScoreTable derives the columnar grading table for an
// arbitrary schema holding the instrument's questions (runs the oracles
// on first use, via the cached answer keys).
func buildColScoreTable(s *colstore.Schema) *ScoreTable {
	t := &ScoreTable{}
	for _, q := range CoreQuestions() {
		t.core = append(t.core, tfItem(s.MustColumnIndex(q.ID), tfCorrectCode(CoreAnswer(q.ID))))
	}
	for _, q := range OptQuestions() {
		ci := s.MustColumnIndex(q.ID)
		if q.IsTrueFalse() {
			t.optTF = append(t.optTF, tfItem(ci, tfCorrectCode(OptAnswer(q.ID))))
			continue
		}
		col := s.Column(ci)
		t.levelCol = ci
		t.levelCorrect = col.MustOptionCode(q.CorrectChoice)
		t.levelDK = col.MustOptionCode(survey.AnswerDontKnow)
		t.levelLUT = make([]uint32, len(col.Options)+1)
		for code := range t.levelLUT {
			t.levelLUT[code] = outcomeInc(t.classifyLevelCode(int32(code)))
		}
	}
	return t
}

// ScoreTableFor returns the grading table for a schema: the canonical
// Columns() schema hits the process-wide cached table; any other schema
// over the same instrument is derived on the fly.
func ScoreTableFor(s *colstore.Schema) *ScoreTable {
	if s == Columns() {
		colScoreOnce.Do(func() { colScore = buildColScoreTable(s) })
		return colScore
	}
	return buildColScoreTable(s)
}

// classifyTFCode maps a truefalse code to a per-question outcome.
func classifyTFCode(code, correct uint8) PerQuestionOutcome {
	switch code {
	case colstore.TFUnanswered:
		return OutcomeUnanswered
	case colstore.TFDontKnow:
		return OutcomeDontKnow
	case correct:
		return OutcomeCorrect
	}
	return OutcomeIncorrect
}

// classifyLevelCode maps a Standard-compliant Level single-choice code
// to an outcome.
func (t *ScoreTable) classifyLevelCode(code int32) PerQuestionOutcome {
	switch code {
	case 0:
		return OutcomeUnanswered
	case t.levelDK:
		return OutcomeDontKnow
	case t.levelCorrect:
		return OutcomeCorrect
	}
	return OutcomeIncorrect
}

// QuizView names one graded view of the instrument.
type QuizView int

const (
	// QuizCore is the 15 core T/F questions.
	QuizCore QuizView = iota
	// QuizOpt is the three T/F optimization questions, the paper's
	// Figure 12 view (the Standard-compliant Level choice is excluded).
	QuizOpt
	// QuizOptAll is all four optimization questions.
	QuizOptAll
	numQuizViews
)

// numOutcomes is the number of PerQuestionOutcome values.
const numOutcomes = 4

// OutcomeCounts is a cohort graded once: for every quiz view and
// outcome, a dense uint8 column in respondent order holding how many
// of the view's questions each respondent answered with that outcome.
// Figures and claims aggregate these columns instead of re-grading the
// answer columns.
type OutcomeCounts struct {
	cols [numQuizViews][numOutcomes][]uint8
}

// Len returns the number of graded respondents.
func (g *OutcomeCounts) Len() int { return len(g.cols[QuizCore][OutcomeCorrect]) }

// Column returns the count column of outcome o on quiz view q. The
// slice is shared; callers must not modify it.
func (g *OutcomeCounts) Column(q QuizView, o PerQuestionOutcome) []uint8 { return g.cols[q][o] }

// Tally returns respondent i's tally on quiz view q.
func (g *OutcomeCounts) Tally(q QuizView, i int) Tally {
	c := &g.cols[q]
	return Tally{
		Correct:    int(c[OutcomeCorrect][i]),
		Incorrect:  int(c[OutcomeIncorrect][i]),
		DontKnow:   int(c[OutcomeDontKnow][i]),
		Unanswered: int(c[OutcomeUnanswered][i]),
	}
}

// columns lists the schema columns the grading kernel reads.
func (t *ScoreTable) columns() []int {
	var cols []int
	for _, it := range t.core {
		cols = append(cols, it.ci)
	}
	for _, it := range t.optTF {
		cols = append(cols, it.ci)
	}
	return append(cols, t.levelCol)
}

// accumulateTF adds every row's packed outcome increments on the given
// T/F questions into acc (one entry per row of b): one table lookup and
// one add per cell, no branches.
func accumulateTF(b *query.Block, items []colItem, acc []uint32) {
	for _, it := range items {
		lut := it.lut
		col := b.U8(it.ci)[:len(acc)]
		for j, code := range col {
			acc[j] += lut[code]
		}
	}
}

// accumulateLevel adds every row's packed outcome increment on the
// Standard-compliant Level question into acc. Free-text answers
// (negative codes) fall back to the classifier.
func (t *ScoreTable) accumulateLevel(b *query.Block, acc []uint32) {
	lut := t.levelLUT
	col := b.I32(t.levelCol)[:len(acc)]
	for j, code := range col {
		if uint32(code) < uint32(len(lut)) {
			acc[j] += lut[code]
		} else {
			acc[j] += outcomeInc(t.classifyLevelCode(code))
		}
	}
}

// unpack writes the four byte-wide counters of acc into a view's count
// columns at respondents [lo, lo+len(acc)).
func unpack(acc []uint32, dst *[numOutcomes][]uint8, lo int) {
	for o := range dst {
		out := dst[o][lo : lo+len(acc)]
		shift := 8 * uint(o)
		for j, a := range acc {
			out[j] = uint8(a >> shift)
		}
	}
}

// gradeBlock grades every row of b into g, using acc (at least b.N
// long) as scratch. It allocates nothing.
func (t *ScoreTable) gradeBlock(b *query.Block, acc []uint32, g *OutcomeCounts) {
	acc = acc[:b.N]
	clear(acc)
	accumulateTF(b, t.core, acc)
	unpack(acc, &g.cols[QuizCore], b.Lo)
	clear(acc)
	accumulateTF(b, t.optTF, acc)
	unpack(acc, &g.cols[QuizOpt], b.Lo)
	t.accumulateLevel(b, acc)
	unpack(acc, &g.cols[QuizOptAll], b.Lo)
}

// gradeWorker is one grading worker's block cursor and scratch.
type gradeWorker struct {
	reader query.BlockReader
	acc    []uint32
	err    error
}

// Grade grades every respondent of a cohort once into outcome-count
// columns, in parallel over the query engine's 8192-respondent blocks
// (workers <= 0 means GOMAXPROCS). Each block writes its own rows, so
// the columns are identical at any worker count. The grade-batch
// observer fires once per block.
func Grade(src query.Source, workers int) (*OutcomeCounts, error) {
	t0 := time.Now()
	_, exc0 := OracleTraceCounts()
	// Force the one-time oracle evaluation (and table build) before
	// fanning out, so workers never contend on the sync.Once. Measured
	// inside the batch window so the FP-exception delta attributes any
	// answer-key derivation to the batch that triggered it.
	t := ScoreTableFor(src.Schema())
	n := src.Len()
	g := &OutcomeCounts{}
	buf := make([]uint8, int(numQuizViews)*numOutcomes*n)
	for q := range g.cols {
		for o := range g.cols[q] {
			g.cols[q][o], buf = buf[:n:n], buf[n:]
		}
	}
	cols := t.columns()
	nb := query.NumBlocks(n)
	errs := make([]error, nb)
	obs := gradeBatchObserver.Load()
	parallel.ForEachWith(workers, nb,
		func() *gradeWorker {
			w := &gradeWorker{acc: make([]uint32, query.BlockRows)}
			w.reader, w.err = src.NewReader(cols)
			return w
		},
		func(w *gradeWorker, b int) {
			if w.err != nil {
				errs[b] = w.err
				return
			}
			var bt time.Time
			if obs != nil {
				bt = time.Now()
			}
			blk, err := w.reader.Block(b)
			if err != nil {
				errs[b] = err
				return
			}
			t.gradeBlock(blk, w.acc, g)
			if obs != nil {
				(*obs)(blk.N, time.Since(bt))
			}
		})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("quiz: grading: %w", err)
		}
	}
	_, exc1 := OracleTraceCounts()
	telemetry.EmitSpan(telemetry.EvBatch, 0, "grade-batch", t0, time.Since(t0), int64(n), exc1-exc0)
	return g, nil
}
