package respondent

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fpstudy/internal/paperdata"
	"fpstudy/internal/parallel"
	"fpstudy/internal/quiz"
	"fpstudy/internal/survey"
)

// Pinned sha256 hashes of the serialized paper-sized cohorts. Any
// drift here is a fidelity regression, not a tuning change.
//
// Re-pinned once for the batched-generation rewrite (see DESIGN.md,
// "Generation hot path"): the hot path moved from math/rand to the
// repositionable xoshiro256++ generator with per-(respondent, column)
// sub-streams, and calibration's invlogit(offset+a) was refactored to
// 1/(1+exp(-offset)·exp(-a)), both of which change the serialized
// stream. The statistical gates (marginals, factor effects, Figure
// 14/15/22 breakdowns) held across the re-pin, and worker-count
// invariance is still enforced against these exact bytes.
const (
	goldenMainSHA    = "4c72166dec3d1510317a1e9ad175309bd67d40a488df500064b4d85f900fbdd3" // seed 42, n=199
	goldenStudentSHA = "af40b7a73515f1588b3853d2d5f076a2a5b9889981f027aafe9540925ce6a15b" // seed 43, n=52
)

// TestColumnarGoldenHashes pins the serialized output of the columnar
// generators to the pre-columnar byte stream for the paper's cohort
// sizes and seeds.
func TestColumnarGoldenHashes(t *testing.T) {
	main := GenerateMainColumnar(42, paperdata.NMain, 0, nil, Instrumentation{})
	var buf bytes.Buffer
	if err := main.Cols.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenMainSHA {
		t.Errorf("main cohort hash = %s, want %s", got, goldenMainSHA)
	}

	students := GenerateStudentsColumnar(43, paperdata.NStudent, 0, Instrumentation{})
	buf.Reset()
	if err := students.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	sum = sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenStudentSHA {
		t.Errorf("student cohort hash = %s, want %s", got, goldenStudentSHA)
	}
}

// TestWriteJSONMatchesRowEncoding asserts that streaming serialization
// from the columns produces exactly the bytes encoding/json produces on
// the materialized row view — the invariant that lets fpgen skip
// materialization entirely.
func TestWriteJSONMatchesRowEncoding(t *testing.T) {
	pop := GenerateMainColumnar(42, 60, 0, nil, Instrumentation{})
	var buf bytes.Buffer
	if err := pop.Cols.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	want, err := survey.EncodeDataset(pop.Cols.ToSurvey())
	if err != nil {
		t.Fatalf("EncodeDataset: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("columnar stream diverged from row encoding (%d vs %d bytes)",
			buf.Len(), len(want))
	}
}

// TestSampleZeroAlloc pins the zero-allocation contract of the
// sampling inner loop: repositioning the worker generator and sampling
// a whole block of respondents into the columns must not touch the
// heap.
func TestSampleZeroAlloc(t *testing.T) {
	profiles := make([]Profile, 64)
	drawProfileBlocks(1, 42, profiles, nil, nil)
	rng := parallel.NewXRand()
	models := calibrateModels(0, profiles, Instrumentation{})
	d := quiz.Columns().NewDataset("1.0", len(profiles))
	cs := newColSampler(d, models, paperdata.Figure22Main)
	coreAbil := abilitiesOf(profiles, false)
	optAbil := abilitiesOf(profiles, true)

	allocs := testing.AllocsPerRun(50, func() {
		cs.sampleBlock(rng, 42, 0, len(profiles), profiles, coreAbil, optAbil)
	})
	if allocs != 0 {
		t.Fatalf("sampling block allocates %.1f allocs/block, want 0", allocs)
	}
}

// TestStudentSampleZeroAlloc pins the same contract for the student
// suspicion cohort's column-major inner loop.
func TestStudentSampleZeroAlloc(t *testing.T) {
	d := quiz.Columns().NewDataset("1.0-student", 64)
	items := quiz.SuspicionItems()
	suspCI := make([]int, len(items))
	suspCum := make([][5]float64, len(items))
	for k, it := range items {
		suspCI[k] = d.Schema.MustColumnIndex(it.ID)
		suspCum[k] = cumulative(paperdata.Figure22Student[k].Percent)
	}
	rng := parallel.NewXRand()

	allocs := testing.AllocsPerRun(50, func() {
		for k := range suspCI {
			for i := 0; i < 64; i++ {
				rng.SeedAt(43, streamStudent, int64(i)<<subStreamBits|int64(k))
				d.SetLikert(suspCI[k], i, drawLikert(rng, &suspCum[k]))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("student inner loop allocates %.1f allocs/block, want 0", allocs)
	}
}

// TestCalibrationSweepZeroAlloc pins the batched calibration kernel's
// inner loop: one bisection-step sweep over the cohort must cost at
// most the fixed closure setup — 0 allocs per respondent.
func TestCalibrationSweepZeroAlloc(t *testing.T) {
	abil := make([]float64, 4096)
	rng := parallel.NewXRand()
	rng.SeedAt(1, 1, 1)
	for i := range abil {
		a, _ := rng.NormPair()
		abil[i] = a
	}
	k := newAbilityKernel(1, abil)
	qm := questionModel{pUn: 0.05, pDK: 0.2}
	w := make([]float64, len(abil))
	k.weights(qm, w)
	allocs := testing.AllocsPerRun(50, func() {
		_ = k.expectCorrect(1, w, 0.3)
	})
	// The sweep closure itself may cost a fixed allocation; anything
	// scaling with the cohort is a regression.
	if allocs > 2 {
		t.Fatalf("calibration sweep allocates %.1f allocs/sweep over %d respondents, want <= 2 fixed",
			allocs, len(abil))
	}
}

// BenchmarkSampleBlock times the block sampling hot path in isolation
// (models pre-calibrated, columns pre-allocated), reported per
// respondent.
func BenchmarkSampleBlock(b *testing.B) {
	const blockN = 1024
	profiles := make([]Profile, blockN)
	drawProfileBlocks(1, 42, profiles, nil, nil)
	rng := parallel.NewXRand()
	models := calibrateModels(0, profiles, Instrumentation{})
	d := quiz.Columns().NewDataset("1.0", blockN)
	cs := newColSampler(d, models, paperdata.Figure22Main)
	coreAbil := abilitiesOf(profiles, false)
	optAbil := abilitiesOf(profiles, true)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cs.sampleBlock(rng, 42, 0, blockN, profiles, coreAbil, optAbil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/blockN, "ns/respondent")
}
