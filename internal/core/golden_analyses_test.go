package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"fpstudy/internal/report"
)

// pinnedAnalysesSHA256 maps a seed-42 main-cohort size to the sha256 of
// analysesBytes for that study. n=20000 spans three query blocks, so
// the multi-block scan paths of the analyses are pinned too. Re-pin
// only for a change meant to alter the published analyses, and say so
// in the change description.
var pinnedAnalysesSHA256 = map[int]string{
	199:   "933a56c4457230990f9d00f908ba9fff875717d54ad1a5a4c0c06a5f54731bd0",
	20000: "cc3b06c68a534a53b6e4de4e9f79f62d6eeabf52d6d5b452a18d1038f3d553f4",
}

// analysesBytes renders the five tabular analyses of a results set
// into one byte stream.
func analysesBytes(r *Results) []byte {
	var b []byte
	for _, tab := range []report.Table{
		r.CalibrationReport(),
		r.FactorAssociation(),
		r.ItemAnalysis(),
		r.ConfidenceReport(),
		r.InterventionReport(),
	} {
		b = append(b, tab.String()...)
	}
	return b
}

// TestGoldenAnalysesPinned pins the rendered calibration, association,
// item, confidence and intervention analyses to absolute hashes at
// workers 1, 4 and 16. TestGoldenReportPinned covers only the figures
// and claims.
func TestGoldenAnalysesPinned(t *testing.T) {
	raiseGOMAXPROCS(t, 16)
	for _, n := range []int{199, 20000} {
		if n > 199 && testing.Short() {
			continue
		}
		for _, workers := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				r := Study{Seed: 42, NMain: n, NStudent: 52, Workers: workers, ColumnarOnly: true}.Run()
				h := sha256.Sum256(analysesBytes(r))
				if got := hex.EncodeToString(h[:]); got != pinnedAnalysesSHA256[n] {
					t.Errorf("analyses sha256 = %s, want %s", got, pinnedAnalysesSHA256[n])
				}
			})
		}
	}
}
