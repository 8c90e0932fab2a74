package respondent

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fpstudy/internal/colstore"
	"fpstudy/internal/paperdata"
	"fpstudy/internal/quiz"
	"fpstudy/internal/stats"
	"fpstudy/internal/survey"
)

// Use a larger population than the paper's 199 for statistical
// assertions so that sampling noise does not flake the build; the paper
// comparisons in the benchmark harness use n=199.
const testN = 4000

var (
	testPop  = GenerateMainColumnar(42, testN, 0, nil, Instrumentation{})
	testRows = testPop.Cols.ToSurvey()
)

// testLabels returns every test respondent's answer to one
// single-choice background question, read from the columns.
func testLabels(id string) []string {
	d := testPop.Cols
	ci := d.Schema.MustColumnIndex(id)
	out := make([]string, d.Len())
	for i := range out {
		out[i] = d.SingleLabel(ci, i)
	}
	return out
}

// rowJSON returns the row-JSON encoding of a cohort.
func rowJSON(t *testing.T, d *colstore.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

func TestDeterministic(t *testing.T) {
	a := make([]Profile, 50)
	b := make([]Profile, 50)
	drawProfileBlocks(0, 7, a, nil, nil)
	drawProfileBlocks(0, 7, b, nil, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("profile %d not deterministic", i)
		}
	}
	ja := rowJSON(t, GenerateMainColumnar(7, 50, 0, nil, Instrumentation{}).Cols)
	jb := rowJSON(t, GenerateMainColumnar(7, 50, 0, nil, Instrumentation{}).Cols)
	if !bytes.Equal(ja, jb) {
		t.Fatal("generated cohort not deterministic")
	}
}

// TestProfileHoldsNoPointers keeps Profile free of pointer-holding
// fields: the labels live in paperdata and the columns, so a
// million-profile slice gives the garbage collector nothing to scan.
func TestProfileHoldsNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s; Profile must hold no pointers", path, ty.Kind())
		}
	}
	walk("Profile", reflect.TypeOf(Profile{}))
}

// TestForceTrainingUnknownLevelPanics pins that the index-based
// override resolves its label when built: a level the instrument does
// not offer panics there, not later inside a generation worker.
func TestForceTrainingUnknownLevelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ForceTraining accepted a level the instrument does not offer")
		}
	}()
	ForceTraining("A doctorate in floating point")
}

func TestResponsesValidate(t *testing.T) {
	ins := quiz.Instrument()
	small := GenerateMainColumnar(3, 100, 0, nil, Instrumentation{}).Cols.ToSurvey()
	if err := ins.ValidateDataset(small); err != nil {
		t.Fatal(err)
	}
	students := GenerateStudentsColumnar(4, 52, 0, Instrumentation{}).ToSurvey()
	if err := ins.ValidateDataset(students); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundMarginalsMatchPaper(t *testing.T) {
	ins := quiz.Instrument()
	tal, err := ins.Tally(testRows, quiz.BGPosition)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range paperdata.Figure1Positions {
		wantPct := paperdata.Percent(e, paperdata.NMain)
		gotPct := 100 * float64(tal[e.Label]) / float64(testN)
		if math.Abs(gotPct-wantPct) > 3 {
			t.Errorf("position %q: %.1f%%, paper %.1f%%", e.Label, gotPct, wantPct)
		}
	}
	// Multi-select: FP languages.
	tal, _ = ins.Tally(testRows, quiz.BGFPLanguages)
	for _, e := range paperdata.Figure6FPLanguages {
		wantPct := paperdata.Percent(e, paperdata.NMain)
		gotPct := 100 * float64(tal[e.Label]) / float64(testN)
		if math.Abs(gotPct-wantPct) > 4 {
			t.Errorf("language %q: %.1f%%, paper %.1f%%", e.Label, gotPct, wantPct)
		}
	}
}

func TestCoreScoreMatchesFigure12(t *testing.T) {
	var sum quiz.Tally
	for _, r := range testRows.Responses {
		sum.Add(quiz.ScoreCore(r))
	}
	n := float64(testN)
	meanCorrect := float64(sum.Correct) / n
	meanIncorrect := float64(sum.Incorrect) / n
	meanDK := float64(sum.DontKnow) / n
	if math.Abs(meanCorrect-paperdata.Figure12Core.Correct) > 0.4 {
		t.Errorf("core mean correct %.2f, paper %.1f", meanCorrect, paperdata.Figure12Core.Correct)
	}
	if math.Abs(meanIncorrect-paperdata.Figure12Core.Incorrect) > 0.4 {
		t.Errorf("core mean incorrect %.2f, paper %.1f", meanIncorrect, paperdata.Figure12Core.Incorrect)
	}
	if math.Abs(meanDK-paperdata.Figure12Core.DontKnow) > 0.4 {
		t.Errorf("core mean DK %.2f, paper %.1f", meanDK, paperdata.Figure12Core.DontKnow)
	}
	// Headline: slightly above chance but far from mastery.
	if meanCorrect < 7.5 || meanCorrect > 10 {
		t.Errorf("core mean %.2f outside the paper's story", meanCorrect)
	}
}

func TestOptScoreMatchesFigure12(t *testing.T) {
	// Figure 12's optimization row covers only the three T/F
	// questions (Standard-compliant Level is excluded as not T/F).
	var sum quiz.Tally
	for _, r := range testRows.Responses {
		sum.Add(quiz.ScoreOptScored(r))
	}
	n := float64(testN)
	if got := float64(sum.Correct) / n; math.Abs(got-paperdata.Figure12Opt.Correct) > 0.25 {
		t.Errorf("opt mean correct %.2f, paper %.1f", got, paperdata.Figure12Opt.Correct)
	}
	if got := float64(sum.DontKnow) / n; math.Abs(got-paperdata.Figure12Opt.DontKnow) > 0.3 {
		t.Errorf("opt mean DK %.2f, paper %.1f", got, paperdata.Figure12Opt.DontKnow)
	}
	// The story: developers answer Don't Know over 2/3 of the time on
	// a per-question basis.
	dkFrac := float64(sum.DontKnow) / (n * 3)
	if dkFrac < 0.6 {
		t.Errorf("opt DK fraction %.2f, want > 0.6", dkFrac)
	}
}

func TestPerQuestionBreakdownMatchesFigure14(t *testing.T) {
	qs := quiz.CoreQuestions()
	for i, q := range qs {
		row := paperdata.Figure14Core[i]
		var c, inc, dk int
		for _, r := range testRows.Responses {
			switch quiz.ClassifyCore(r, q) {
			case quiz.OutcomeCorrect:
				c++
			case quiz.OutcomeIncorrect:
				inc++
			case quiz.OutcomeDontKnow:
				dk++
			}
		}
		n := float64(testN)
		if got := 100 * float64(c) / n; math.Abs(got-row.Correct) > 4 {
			t.Errorf("%s correct %.1f%%, paper %.1f%%", q.Label, got, row.Correct)
		}
		if got := 100 * float64(dk) / n; math.Abs(got-row.DontKnow) > 4 {
			t.Errorf("%s DK %.1f%%, paper %.1f%%", q.Label, got, row.DontKnow)
		}
	}
}

func TestWrongMajorityQuestions(t *testing.T) {
	// Identity and Divide-by-Zero must be answered incorrectly by a
	// majority — the paper's most alarming finding.
	for _, id := range []string{"core.identity", "core.divzero"} {
		q, _ := quiz.CoreQuestionByID(id)
		var c, inc int
		for _, r := range testRows.Responses {
			switch quiz.ClassifyCore(r, q) {
			case quiz.OutcomeCorrect:
				c++
			case quiz.OutcomeIncorrect:
				inc++
			}
		}
		if inc <= c*2 {
			t.Errorf("%s: incorrect %d vs correct %d — paper has ~77%% incorrect", id, inc, c)
		}
	}
}

func TestFactorEffectContribSize(t *testing.T) {
	// Larger contributed codebases => higher core scores, monotone
	// (within noise), with a spread of roughly 3-4 points.
	order := []string{
		"100 to 1,000 lines of code",
		"1,001 to 10,000 lines of code",
		"10,001 to 100,000 lines of code",
		"100,001 to 1,000,000 lines of code",
		">1,000,000 lines of code",
	}
	means := map[string]float64{}
	counts := map[string]int{}
	sizes := testLabels(quiz.BGContribSize)
	for i, r := range testRows.Responses {
		tl := quiz.ScoreCore(r)
		means[sizes[i]] += float64(tl.Correct)
		counts[sizes[i]]++
	}
	for k := range means {
		means[k] /= float64(counts[k])
	}
	for i := 1; i < len(order); i++ {
		if means[order[i]] < means[order[i-1]]-0.3 {
			t.Errorf("size effect not monotone: %q %.2f < %q %.2f",
				order[i], means[order[i]], order[i-1], means[order[i-1]])
		}
	}
	spread := means[">1,000,000 lines of code"] - means["100 to 1,000 lines of code"]
	if spread < 1.5 || spread > 5 {
		t.Errorf("size effect spread %.2f, want ~3-4", spread)
	}
	if means[">1,000,000 lines of code"] < 10 {
		t.Errorf(">1M mean %.2f, paper ~11", means[">1,000,000 lines of code"])
	}
}

func TestFactorEffectArea(t *testing.T) {
	var csLike, physEng []float64
	areas := testLabels(quiz.BGArea)
	for i, r := range testRows.Responses {
		score := float64(quiz.ScoreCore(r).Correct)
		switch areas[i] {
		case "Computer Science", "Computer Engineering", "Electrical Engineering":
			csLike = append(csLike, score)
		case "Other Physical Science Field", "Other Engineering Field":
			physEng = append(physEng, score)
		}
	}
	mCS, mPE := stats.Mean(csLike), stats.Mean(physEng)
	if mCS-mPE < 1.5 {
		t.Errorf("CS-like %.2f vs PhysSci/Eng %.2f: gap too small", mCS, mPE)
	}
	// PhysSci/Eng performs at the level of chance (paper: disturbing).
	if math.Abs(mPE-7.5) > 1.2 {
		t.Errorf("PhysSci/Eng mean %.2f, paper ~chance 7.5", mPE)
	}
}

func TestFactorEffectRoleOnOptQuiz(t *testing.T) {
	var swe, support []float64
	roles := testLabels(quiz.BGRole)
	for i, r := range testRows.Responses {
		score := float64(quiz.ScoreOpt(r).Correct)
		switch roles[i] {
		case "My main role is as a software engineer":
			swe = append(swe, score)
		case "I develop software to support my main role":
			support = append(support, score)
		}
	}
	if stats.Mean(swe) <= stats.Mean(support) {
		t.Errorf("opt quiz: swe %.2f should beat support %.2f",
			stats.Mean(swe), stats.Mean(support))
	}
}

func TestSuspicionDistributions(t *testing.T) {
	items := quiz.SuspicionItems()
	for gi, tc := range []struct {
		name  string
		ds    *survey.Dataset
		dists []paperdata.SuspicionDist
	}{
		{"main", testRows, paperdata.Figure22Main},
		{"students", GenerateStudentsColumnar(5, 5000, 0, Instrumentation{}).ToSurvey(), paperdata.Figure22Student},
	} {
		for i, it := range items {
			var levels []int
			for _, r := range tc.ds.Responses {
				if a := r.Answer(it.ID); a.Level > 0 {
					levels = append(levels, a.Level)
				}
			}
			d := stats.NewLikertDist(levels, 5)
			for l := 0; l < 5; l++ {
				if math.Abs(d.Percent[l]-tc.dists[i].Percent[l]) > 4 {
					t.Errorf("%s %s level %d: %.1f%%, target %.1f%%",
						tc.name, it.ID, l+1, d.Percent[l], tc.dists[i].Percent[l])
				}
			}
		}
		_ = gi
	}
}

func TestSuspicionOrdering(t *testing.T) {
	// Invalid > Overflow > Underflow/Precision/Denorm in mean level.
	mean := func(id string) float64 {
		var levels []int
		for _, r := range testRows.Responses {
			if a := r.Answer(id); a.Level > 0 {
				levels = append(levels, a.Level)
			}
		}
		return stats.NewLikertDist(levels, 5).MeanLevel()
	}
	inv, ovf := mean("susp.invalid"), mean("susp.overflow")
	und, prec, den := mean("susp.underflow"), mean("susp.precision"), mean("susp.denorm")
	if !(inv > ovf && ovf > und && ovf > prec && ovf > den) {
		t.Errorf("suspicion ordering broken: inv=%.2f ovf=%.2f und=%.2f prec=%.2f den=%.2f",
			inv, ovf, und, prec, den)
	}
	// About 1/3 of respondents under-rate Invalid (level < 5).
	below := 0
	total := 0
	for _, r := range testRows.Responses {
		if a := r.Answer("susp.invalid"); a.Level > 0 {
			total++
			if a.Level < 5 {
				below++
			}
		}
	}
	frac := float64(below) / float64(total)
	if frac < 0.25 || frac > 0.45 {
		t.Errorf("invalid under-rating fraction %.2f, paper ~1/3", frac)
	}
}

func TestStudentsLessSuspiciousOfUnderflowDenorm(t *testing.T) {
	students := GenerateStudentsColumnar(6, 5000, 0, Instrumentation{}).ToSurvey()
	meanOf := func(ds *survey.Dataset, id string) float64 {
		var levels []int
		for _, r := range ds.Responses {
			if a := r.Answer(id); a.Level > 0 {
				levels = append(levels, a.Level)
			}
		}
		return stats.NewLikertDist(levels, 5).MeanLevel()
	}
	for _, id := range []string{"susp.underflow", "susp.denorm", "susp.overflow"} {
		if meanOf(students, id) >= meanOf(testRows, id) {
			t.Errorf("%s: students should be less suspicious", id)
		}
	}
}

func TestAbilityDistribution(t *testing.T) {
	profiles := make([]Profile, testN)
	drawProfileBlocks(0, 42, profiles, nil, nil)
	abilities := abilitiesOf(profiles, false)
	s := stats.Summarize(abilities)
	if math.Abs(s.Mean) > 0.15 {
		t.Errorf("ability mean %.3f, want ~0 (centered)", s.Mean)
	}
	if s.StdDev < 0.2 || s.StdDev > 1.5 {
		t.Errorf("ability sd %.3f out of plausible range", s.StdDev)
	}
}

func TestShortListsPredictLowerScores(t *testing.T) {
	// The paper: respondents reporting no informal training at all (or
	// a near-empty language list) score worse; what the list contains
	// does not matter.
	var short, normal []float64
	d := testPop.Cols
	informal := d.Schema.MustColumnIndex(quiz.BGInformal)
	languages := d.Schema.MustColumnIndex(quiz.BGFPLanguages)
	for i, r := range testRows.Responses {
		score := float64(quiz.ScoreCore(r).Correct)
		if d.MultiMask(informal, i) == 0 || bits.OnesCount64(d.MultiMask(languages, i)) <= 1 {
			short = append(short, score)
		} else {
			normal = append(normal, score)
		}
	}
	if len(short) < 20 {
		t.Skipf("only %d short-list respondents in sample", len(short))
	}
	if stats.Mean(short) >= stats.Mean(normal) {
		t.Errorf("short-list mean %.2f should be below normal %.2f",
			stats.Mean(short), stats.Mean(normal))
	}
}

// encodedFPDS returns the FPDS encoding of a generated cohort.
func encodedFPDS(t *testing.T, d *colstore.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.EncodeBinary(&buf, colstore.IOOptions{}); err != nil {
		t.Fatalf("EncodeBinary: %v", err)
	}
	return buf.Bytes()
}

// treatedCohorts runs GenerateTreatedColumnar and returns each treated
// cohort's FPDS encoding.
func treatedCohorts(t *testing.T, seed int64, n, workers int, overrides []func(*Profile)) [][]byte {
	t.Helper()
	out := make([][]byte, len(overrides))
	err := GenerateTreatedColumnar(seed, n, workers, overrides, func(k int, d *colstore.Dataset) error {
		out[k] = encodedFPDS(t, d)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGenerateTreatedColumnar pins the treated-cohort entry point: an
// identity override reproduces the untreated cohort byte for byte, a
// forced training level lands in every respondent's answer, forcing
// the largest codebase raises the mean score (the models are
// calibrated on the untreated world), each cohort matches the
// single-override GenerateMainColumnar, and the bytes are identical at
// workers 1, 4 and 16.
func TestGenerateTreatedColumnar(t *testing.T) {
	if old := runtime.GOMAXPROCS(0); old < 16 {
		runtime.GOMAXPROCS(16)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
	const seed, n = 123, 1500
	const level = "One or more courses"
	bigSize := tables().contribSize.index(quiz.BGContribSize, ">1,000,000 lines of code")
	overrides := []func(*Profile){
		func(*Profile) {},
		ForceTraining(level),
		func(p *Profile) { p.idx.contribSize = bigSize },
	}
	want := treatedCohorts(t, seed, n, 1, overrides)

	base := GenerateMainColumnar(seed, n, 1, nil, Instrumentation{}).Cols
	if !bytes.Equal(want[0], encodedFPDS(t, base)) {
		t.Error("identity override differs from the untreated cohort")
	}
	for k, o := range overrides {
		single := GenerateMainColumnar(seed, n, 1, o, Instrumentation{}).Cols
		if !bytes.Equal(want[k], encodedFPDS(t, single)) {
			t.Errorf("override %d differs from GenerateMainColumnar with the same override", k)
		}
	}

	var trained, bigCode *colstore.Dataset
	err := GenerateTreatedColumnar(seed, n, 1, overrides[1:], func(k int, d *colstore.Dataset) error {
		if k == 0 {
			trained = d
		} else {
			bigCode = d
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ci := trained.Schema.MustColumnIndex(quiz.BGFormalTraining)
	for i := 0; i < n; i++ {
		if got := trained.SingleLabel(ci, i); got != level {
			t.Fatalf("respondent %d formal training %q, want %q", i, got, level)
		}
	}
	meanOf := func(d *colstore.Dataset) float64 {
		s := 0.0
		for i := 0; i < d.Len(); i++ {
			s += float64(quiz.ScoreCore(d.Response(i)).Correct)
		}
		return s / float64(d.Len())
	}
	if mb, mt := meanOf(base), meanOf(bigCode); mt < mb+1.0 {
		t.Errorf("forcing >1M LoC moved mean only %.2f -> %.2f", mb, mt)
	}

	for _, workers := range []int{4, 16} {
		got := treatedCohorts(t, seed, n, workers, overrides)
		for k := range got {
			if !bytes.Equal(got[k], want[k]) {
				t.Errorf("workers=%d: treated cohort %d differs from workers=1", workers, k)
			}
		}
	}
}

// TestGenerateTreatedCalibratesOnce pins the calibrate-once design:
// however many overrides a sweep samples, the question models are
// bisected once (19 bisections), and a visit error stops the sweep.
func TestGenerateTreatedCalibratesOnce(t *testing.T) {
	var calls atomic.Int64
	SetLatencyHook(&LatencyHook{Calibrate: func(int, time.Duration) { calls.Add(1) }})
	defer SetLatencyHook(nil)
	overrides := make([]func(*Profile), 4)
	for k := range overrides {
		overrides[k] = ForceTraining("None")
	}
	visits := 0
	errStop := errors.New("stop")
	err := GenerateTreatedColumnar(5, 300, 0, overrides, func(k int, d *colstore.Dataset) error {
		visits++
		if k == 2 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || visits != 3 {
		t.Errorf("err = %v after %d visits, want errStop after 3", err, visits)
	}
	if got, want := calls.Load(), int64(len(quiz.CoreQuestions())+len(quiz.OptQuestions())); got != want {
		t.Errorf("%d bisections, want %d (one calibration)", got, want)
	}
}

func TestStudentDatasetShape(t *testing.T) {
	ds := GenerateStudentsColumnar(9, 52, 0, Instrumentation{}).ToSurvey()
	if len(ds.Responses) != 52 {
		t.Fatalf("%d students", len(ds.Responses))
	}
	for _, r := range ds.Responses {
		if len(r.Answers) != 5 {
			t.Fatalf("student answered %d questions, want 5 (suspicion only)", len(r.Answers))
		}
	}
}
