package benchcmp

import "testing"

func TestDetectDriftFlagsOutlier(t *testing.T) {
	// A stable throughput series with one collapsed run.
	vals := []float64{100, 102, 98, 101, 99, 100, 60}
	s := DetectDrift(vals, DriftParams{})
	if s.NumDrift != 1 {
		t.Fatalf("NumDrift = %d, want 1 (%+v)", s.NumDrift, s.Points)
	}
	if !s.Points[6].Drift {
		t.Error("the 60 point was not flagged")
	}
	if s.Points[6].Deviation > -0.3 {
		t.Errorf("deviation = %.3f, want about -0.4", s.Points[6].Deviation)
	}
	if s.Median < 99 || s.Median > 101 {
		t.Errorf("median = %.1f, want ~100", s.Median)
	}
}

// TestDetectDriftRelativeFloor: a near-constant series (MAD ~ 0) must
// not flag timer jitter below the relative floor.
func TestDetectDriftRelativeFloor(t *testing.T) {
	vals := []float64{100, 100, 100, 100, 103} // 3% wiggle, MAD = 0
	s := DetectDrift(vals, DriftParams{})
	if s.NumDrift != 0 {
		t.Fatalf("NumDrift = %d, want 0 (3%% sits under the 10%% floor)", s.NumDrift)
	}
	// ...but a 15% move over a MAD-zero base does drift.
	s = DetectDrift([]float64{100, 100, 100, 100, 115}, DriftParams{})
	if s.NumDrift != 1 {
		t.Fatalf("NumDrift = %d, want 1", s.NumDrift)
	}
}

// TestDetectDriftShortSeries: fewer than 3 points never flag.
func TestDetectDriftShortSeries(t *testing.T) {
	for _, vals := range [][]float64{nil, {5}, {5, 500}} {
		if s := DetectDrift(vals, DriftParams{}); s.NumDrift != 0 {
			t.Errorf("%v: NumDrift = %d, want 0", vals, s.NumDrift)
		}
	}
}

// TestDetectDriftRobustToOutlier: the band itself must not be dragged
// by the outlier it is supposed to catch (median/MAD, not mean/σ).
func TestDetectDriftRobustToOutlier(t *testing.T) {
	vals := []float64{100, 101, 99, 100, 1000}
	s := DetectDrift(vals, DriftParams{})
	if s.Median > 110 {
		t.Errorf("median = %.0f dragged by outlier", s.Median)
	}
	if !s.Points[4].Drift {
		t.Error("outlier escaped the robust band")
	}
}
