package query_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/query"
	"fpstudy/internal/quiz"
	"fpstudy/internal/survey"
)

// randomAnswer draws a random answer for q, exercising every storage
// path: codes, free-text references, verbatim (shuffled) multi lists,
// and free-text multi additions.
func randomAnswer(rng *rand.Rand, q survey.Question) (survey.Answer, bool) {
	switch q.Kind {
	case survey.TrueFalse:
		tf := []string{survey.AnswerTrue, survey.AnswerFalse, survey.AnswerDontKnow}
		return survey.Answer{Choice: tf[rng.Intn(len(tf))]}, true
	case survey.Likert:
		return survey.Answer{Level: 1 + rng.Intn(q.Scale)}, true
	case survey.SingleChoice:
		if rng.Intn(8) == 0 {
			return survey.Answer{Choice: "write-in option &<js>"}, true
		}
		return survey.Answer{Choice: q.Options[rng.Intn(len(q.Options))]}, true
	case survey.MultiChoice:
		var choices []string
		for _, o := range q.Options {
			if rng.Intn(3) == 0 {
				choices = append(choices, o)
			}
		}
		switch rng.Intn(4) {
		case 0:
			if len(choices) > 1 {
				// Verbatim path: non-canonical order spills the whole list.
				j := rng.Intn(len(choices) - 1)
				choices[j], choices[j+1] = choices[j+1], choices[j]
			}
		case 1:
			choices = append(choices, "Befunge-93", "INTERCAL")
		}
		if choices == nil {
			return survey.Answer{}, false
		}
		return survey.Answer{Choices: choices}, true
	}
	return survey.Answer{}, false
}

// randomCohort builds a seeded-random columnar cohort over the quiz
// instrument, including spill paths.
func randomCohort(t testing.TB, rng *rand.Rand, n int) *colstore.Dataset {
	t.Helper()
	ins := quiz.Instrument()
	ds := &survey.Dataset{Instrument: ins.Title, Version: ins.Version,
		Responses: make([]survey.Response, n)}
	for i := range ds.Responses {
		r := &ds.Responses[i]
		r.Answers = map[string]survey.Answer{}
		for _, q := range ins.Questions() {
			if rng.Intn(5) == 0 {
				continue // unanswered
			}
			if a, ok := randomAnswer(rng, q); ok {
				r.Answers[q.ID] = a
			}
		}
	}
	ds.Anonymize()
	cols, err := colstore.FromSurvey(quiz.Columns(), ds)
	if err != nil {
		t.Fatalf("FromSurvey: %v", err)
	}
	return cols
}

// sources returns the in-memory and streaming views of the same
// cohort (the shard is encoded to bytes and re-opened).
func sources(t *testing.T, d *colstore.Dataset) (mem, shard query.Source) {
	t.Helper()
	var buf bytes.Buffer
	if err := d.EncodeBinary(&buf, colstore.IOOptions{}); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	sr, err := colstore.NewShardReader(d.Schema, bytes.NewReader(buf.Bytes()), int64(buf.Len()), colstore.IOOptions{})
	if err != nil {
		t.Fatalf("NewShardReader: %v", err)
	}
	return query.NewDatasetSource(d), query.NewShardSource(sr)
}

// effectiveMask rebuilds a row's effective multi-choice option bitset
// from the materialized label list — the reference the U64 kernels
// (raw masks plus verbatim patches) must reproduce.
func effectiveMask(d *colstore.Dataset, ci, i int) uint64 {
	c := d.Schema.Column(ci)
	var mask uint64
	for _, lbl := range d.MultiChoices(ci, i) {
		if code, ok := c.OptionCode(lbl); ok {
			mask |= 1 << uint(code-1)
		}
	}
	return mask
}

// selectedRows runs a filter and returns the selected row indices in
// order, pinning the whole selection bitmap (not just its count).
func selectedRows(t *testing.T, src query.Source, filter []query.Predicate, workers int, n int) []float64 {
	t.Helper()
	idx := make([]float64, n)
	for i := range idx {
		idx[i] = float64(i)
	}
	res, err := query.RunCollect(src, query.Query{
		Filter: filter,
		Values: []query.Value{query.SliceValue[float64]{Vals: idx}},
	}, workers)
	if err != nil {
		t.Fatalf("RunCollect: %v", err)
	}
	return res.Groups[0]
}

var workerCounts = []int{1, 4, 16}

// TestPredicateKernelsVsReference pins every predicate kernel against
// a naive row loop on seeded-random cohorts (free text and verbatim
// multi-choice spills included), across worker counts and both source
// kinds, selection-exact (row indices, not just counts).
func TestPredicateKernelsVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := quiz.Columns()
	tfCol := s.MustColumnIndex(quiz.CoreQuestions()[0].ID)
	likCol := s.MustColumnIndex("susp.invalid")
	sglCol := s.MustColumnIndex(quiz.BGArea)
	mulCol := s.MustColumnIndex(quiz.BGInformal)

	for _, n := range []int{1, 63, 64, 65, 200, 8192, 8193} {
		d := randomCohort(t, rng, n)
		mem, shard := sources(t, d)
		cases := []struct {
			name  string
			pred  query.Predicate
			match func(i int) bool
		}{
			{"u8eq-true", query.U8Eq{Col: tfCol, Code: colstore.TFTrue},
				func(i int) bool { return d.TF(tfCol, i) == colstore.TFTrue }},
			{"u8eq-unanswered", query.U8Eq{Col: tfCol, Code: colstore.TFUnanswered},
				func(i int) bool { return d.TF(tfCol, i) == colstore.TFUnanswered }},
			{"u8ne-false", query.U8Ne{Col: tfCol, Code: colstore.TFFalse},
				func(i int) bool { return d.TF(tfCol, i) != colstore.TFFalse }},
			{"u8range-2-4", query.U8Range{Col: likCol, Lo: 2, Hi: 4},
				func(i int) bool { lv := d.LikertLevel(likCol, i); return lv >= 2 && lv <= 4 }},
			{"i32set", query.I32SetOf(sglCol, 1, 3),
				func(i int) bool { c := d.SingleCode(sglCol, i); return c == 1 || c == 3 }},
			{"i32set-unanswered", query.I32SetOf(sglCol, 0),
				func(i int) bool { return d.SingleCode(sglCol, i) == 0 }},
			{"i32ne", query.I32Ne{Col: sglCol, Code: 2},
				func(i int) bool { return d.SingleCode(sglCol, i) != 2 }},
			{"u64any", query.U64Any{Col: mulCol, Mask: 0b101},
				func(i int) bool { return effectiveMask(d, mulCol, i)&0b101 != 0 }},
			{"u64all", query.U64All{Col: mulCol, Mask: 0b11},
				func(i int) bool { return effectiveMask(d, mulCol, i)&0b11 == 0b11 }},
			{"conjunction", nil, func(i int) bool {
				return d.TF(tfCol, i) == colstore.TFTrue && effectiveMask(d, mulCol, i)&1 != 0
			}},
		}
		for _, tc := range cases {
			filter := []query.Predicate{tc.pred}
			if tc.pred == nil {
				filter = []query.Predicate{
					query.U8Eq{Col: tfCol, Code: colstore.TFTrue},
					query.U64Any{Col: mulCol, Mask: 1},
				}
			}
			var want []float64
			for i := 0; i < n; i++ {
				if tc.match(i) {
					want = append(want, float64(i))
				}
			}
			for _, w := range workerCounts {
				for srcName, src := range map[string]query.Source{"mem": mem, "shard": shard} {
					got := selectedRows(t, src, filter, w, n)
					if len(got) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d %s %s workers=%d: selection mismatch\n got %v\nwant %v",
							n, tc.name, srcName, w, got, want)
					}
				}
			}
		}
	}
}

// TestGroupedAggregatesVsReference pins Run's grouped count/sum/mean
// against a sequential row loop: single-choice group-by of a Likert
// value and a derived quiz score, empty groups and unanswered rows
// included, bit-identical at every worker count and on both sources.
func TestGroupedAggregatesVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	s := quiz.Columns()
	keyCi := s.MustColumnIndex(quiz.BGFormalTraining)
	keyCol := s.Column(keyCi)
	likCi := s.MustColumnIndex("susp.overflow")

	for _, n := range []int{17, 9000} {
		d := randomCohort(t, rng, n)
		mem, shard := sources(t, d)
		scoreVal, err := quiz.QueryValue(s, "core.score")
		if err != nil {
			t.Fatalf("QueryValue: %v", err)
		}
		q := query.Query{
			Key:    query.SingleKey{Col: keyCi, Options: keyCol.Options},
			Values: []query.Value{query.LikertValue{Col: likCi}, scoreVal},
		}
		card := len(keyCol.Options) + 2

		wantCount := make([]int64, card)
		wantN := [][]int64{make([]int64, card), make([]int64, card)}
		wantSum := [][]float64{make([]float64, card), make([]float64, card)}
		for i := 0; i < n; i++ {
			k := d.SingleCode(keyCi, i)
			if k < 0 {
				k = int32(card - 1)
			}
			wantCount[k]++
			if lv := d.LikertLevel(likCi, i); lv > 0 {
				wantN[0][k]++
				wantSum[0][k] += float64(lv)
			}
			wantN[1][k]++
			wantSum[1][k] += float64(quiz.ScoreCore(d.Response(i)).Correct)
		}

		for _, w := range workerCounts {
			for srcName, src := range map[string]query.Source{"mem": mem, "shard": shard} {
				res, err := query.Run(src, q, w)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if !reflect.DeepEqual(res.Count, wantCount) ||
					!reflect.DeepEqual(res.N, wantN) ||
					!reflect.DeepEqual(res.Sum, wantSum) {
					t.Fatalf("n=%d %s workers=%d: grouped aggregates diverge from row loop", n, srcName, w)
				}
				for k := 0; k < card; k++ {
					if res.N[0][k] == 0 && res.Mean(0, k) != 0 {
						t.Fatalf("empty group %d should have mean 0", k)
					}
				}
			}
		}
	}
}

// TestAllFalseSelection pins the degenerate filter: a predicate
// matching nothing yields zero counts, zero sums, and empty collected
// groups.
func TestAllFalseSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d := randomCohort(t, rng, 500)
	s := d.Schema
	mem, shard := sources(t, d)
	ci := s.MustColumnIndex(quiz.BGArea)
	none := []query.Predicate{query.I32Set{Col: ci, Mask: 0}}
	for _, src := range []query.Source{mem, shard} {
		res, err := query.Run(src, query.Query{
			Filter: none,
			Key:    query.SingleKey{Col: ci, Options: s.Column(ci).Options},
			Values: []query.Value{query.LikertValue{Col: s.MustColumnIndex("susp.invalid")}},
		}, 4)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.TotalCount() != 0 {
			t.Fatalf("all-false filter selected %d rows", res.TotalCount())
		}
		for vi := range res.Sum {
			for k := range res.Sum[vi] {
				if res.Sum[vi][k] != 0 || res.N[vi][k] != 0 {
					t.Fatalf("all-false filter accumulated sums")
				}
			}
		}
		col, err := query.RunCollect(src, query.Query{
			Filter: none,
			Values: []query.Value{query.LikertValue{Col: s.MustColumnIndex("susp.invalid")}},
		}, 4)
		if err != nil {
			t.Fatalf("RunCollect: %v", err)
		}
		if len(col.Groups[0]) != 0 {
			t.Fatalf("all-false filter collected %d values", len(col.Groups[0]))
		}
	}
}

// TestRunCollectOrder pins RunCollect's respondent-order contract: the
// collected sequences are bitwise identical to a sequential row loop,
// at every worker count, on both sources.
func TestRunCollectOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := quiz.Columns()
	keyCi := s.MustColumnIndex(quiz.BGRole)
	likCi := s.MustColumnIndex("susp.denorm")
	d := randomCohort(t, rng, 9001)
	mem, shard := sources(t, d)
	card := len(s.Column(keyCi).Options) + 2

	want := make([][]float64, card)
	for i := 0; i < d.Len(); i++ {
		lv := d.LikertLevel(likCi, i)
		if lv == 0 {
			continue
		}
		k := d.SingleCode(keyCi, i)
		if k < 0 {
			k = int32(card - 1)
		}
		want[k] = append(want[k], float64(lv))
	}

	q := query.Query{
		Key:    query.SingleKey{Col: keyCi, Options: s.Column(keyCi).Options},
		Values: []query.Value{query.LikertValue{Col: likCi}},
	}
	for _, w := range workerCounts {
		for srcName, src := range map[string]query.Source{"mem": mem, "shard": shard} {
			res, err := query.RunCollect(src, q, w)
			if err != nil {
				t.Fatalf("RunCollect: %v", err)
			}
			for k := range want {
				got := res.Groups[k]
				if len(got) == 0 && len(want[k]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want[k]) {
					t.Fatalf("%s workers=%d group %d: collected sequence diverges", srcName, w, k)
				}
			}
		}
	}
}

// TestTallyVsReference pins the vectorized Tally against the row-loop
// semantics of survey.Instrument.Tally for every question kind,
// spills included, on both sources.
func TestTallyVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, n := range []int{40, 8300} {
		d := randomCohort(t, rng, n)
		s := d.Schema
		mem, shard := sources(t, d)
		for ci := 0; ci < s.NumColumns(); ci++ {
			c := s.Column(ci)
			want := map[string]int{}
			for i := 0; i < n; i++ {
				switch c.Kind {
				case survey.TrueFalse:
					switch d.TF(ci, i) {
					case colstore.TFUnanswered:
						want["unanswered"]++
					case colstore.TFTrue:
						want[survey.AnswerTrue]++
					case colstore.TFFalse:
						want[survey.AnswerFalse]++
					default:
						want[survey.AnswerDontKnow]++
					}
				case survey.Likert:
					if lv := d.LikertLevel(ci, i); lv == 0 {
						want["unanswered"]++
					} else {
						want[strconv.Itoa(lv)]++
					}
				case survey.SingleChoice:
					if lbl := d.SingleLabel(ci, i); lbl == "" {
						want["unanswered"]++
					} else {
						want[lbl]++
					}
				case survey.MultiChoice:
					if d.MultiUnanswered(ci, i) {
						want["unanswered"]++
					} else {
						d.ForEachMultiChoice(ci, i, func(label string) { want[label]++ })
					}
				}
			}
			for _, w := range workerCounts {
				for srcName, src := range map[string]query.Source{"mem": mem, "shard": shard} {
					got, err := query.Tally(src, c.ID, w)
					if err != nil {
						t.Fatalf("Tally(%s): %v", c.ID, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d %s workers=%d question %s: tally diverges\n got %v\nwant %v",
							n, srcName, w, c.ID, got, want)
					}
				}
			}
		}
	}
}

// TestEmptyCohort pins the n=0 edge: zero blocks, zero counts, no
// panics.
func TestEmptyCohort(t *testing.T) {
	ins := quiz.Instrument()
	ds := &survey.Dataset{Instrument: ins.Title, Version: ins.Version}
	d, err := colstore.FromSurvey(quiz.Columns(), ds)
	if err != nil {
		t.Fatalf("FromSurvey: %v", err)
	}
	src := query.NewDatasetSource(d)
	res, err := query.Run(src, query.Query{}, 4)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TotalCount() != 0 {
		t.Fatalf("empty cohort counted %d rows", res.TotalCount())
	}
	tal, err := query.Tally(src, quiz.BGArea, 4)
	if err != nil {
		t.Fatalf("Tally: %v", err)
	}
	if len(tal) != 0 {
		t.Fatalf("empty cohort tallied %v", tal)
	}
}

// TestBitmap pins the selection bitmap primitives, including tail
// masking at non-multiple-of-64 lengths.
func TestBitmap(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 8192} {
		m := query.NewBitmap(n)
		if m.Count() != n {
			t.Fatalf("fresh bitmap n=%d counts %d", n, m.Count())
		}
		var rows []int
		m.ForEach(func(j int) { rows = append(rows, j) })
		if len(rows) != n {
			t.Fatalf("ForEach visited %d of %d", len(rows), n)
		}
		for i, j := range rows {
			if i != j {
				t.Fatalf("ForEach order broken at %d", i)
			}
		}
	}
	// Reuse shrinks and regrows cleanly.
	m := query.NewBitmap(130)
	m.Reset(7)
	if m.Len() != 7 || m.Count() != 7 {
		t.Fatalf("reset to 7: len=%d count=%d", m.Len(), m.Count())
	}
	if m.Test(6) != true {
		t.Fatalf("row 6 should be selected")
	}
}
