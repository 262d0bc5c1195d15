package calibrate

import (
	"testing"
)

// TestShippedCurvesNearOptimum is the calibration claim itself: the curves
// shipped in internal/system sit at (or within a few percent of) the error
// minimum over a wide range of scale factors.
func TestShippedCurvesNearOptimum(t *testing.T) {
	fit, err := Fit(0.7, 1.3, 25)
	if err != nil {
		t.Fatal(err)
	}
	if fit.UnitError > 0.06 {
		t.Errorf("shipped-curve error %.3f exceeds 6%%", fit.UnitError)
	}
	if fit.UnitError > fit.BestError+0.02 {
		t.Errorf("shipped curves (err %.3f) are more than 2 points off the fitted optimum (%.3f at %.3f×)",
			fit.UnitError, fit.BestError, fit.BestFactor)
	}
	if fit.BestFactor < 0.9 || fit.BestFactor > 1.1 {
		t.Errorf("fitted factor %.3f should be near 1.0 — the shipped curves are the calibration", fit.BestFactor)
	}
}

// TestErrorGrowsAwayFromOptimum: mis-scaled curves validate worse in both
// directions.
func TestErrorGrowsAwayFromOptimum(t *testing.T) {
	unit, err := Error(1.0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Error(0.75)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Error(1.25)
	if err != nil {
		t.Fatal(err)
	}
	if !(slow > unit && fast > unit) {
		t.Errorf("error should grow away from 1.0: 0.75×→%.3f, 1.0×→%.3f, 1.25×→%.3f", slow, unit, fast)
	}
}

func TestScaledSystemClampsAtPeak(t *testing.T) {
	s := ScaledSystem(8, 100)
	for _, p := range s.Compute.MatrixEff.Points() {
		if p.Eff > 1 {
			t.Fatalf("efficiency above peak: %+v", p)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFitAndErrorValidation(t *testing.T) {
	if _, err := Error(0); err == nil {
		t.Error("zero factor must fail")
	}
	if _, err := Fit(1, 1, 5); err == nil {
		t.Error("empty range must fail")
	}
	if _, err := Fit(0.5, 1.5, 1); err == nil {
		t.Error("single step must fail")
	}
	fit, err := Fit(0.9, 1.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fit.Sweep) != 3 {
		t.Errorf("sweep has %d points, want 3", len(fit.Sweep))
	}
}
