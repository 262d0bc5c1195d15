// Package calibrate makes the model's one semi-empirical input
// reproducible. The original tool relies on unpublished vendor
// GEMM-efficiency measurements; this reproduction ships piecewise-linear
// efficiency curves (internal/system) calibrated against the paper's
// published Table 2 measurements. This package re-derives that calibration:
// it scales the matrix-efficiency curve by a single factor and fits the
// factor that minimizes the average validation error, demonstrating that
// the shipped curves sit at (or very near) the optimum.
package calibrate

import (
	"fmt"
	"math"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/perf"
	"calculon/internal/system"
)

// anchor is one published Selene measurement from Table 2 of the paper.
type anchor struct {
	preset   string
	gpus, pp int
	seqSel   bool
	seconds  float64
}

// anchors are the eight measured points of Table 2.
var anchors = []anchor{
	{"megatron-22B", 8, 1, false, 1.42},
	{"gpt3-175B", 64, 8, false, 18.13},
	{"turing-530B", 280, 35, false, 49.05},
	{"megatron-1T", 512, 64, false, 94.42},
	{"megatron-22B", 8, 1, true, 1.10},
	{"gpt3-175B", 64, 8, true, 13.75},
	{"turing-530B", 280, 35, true, 37.83},
	{"megatron-1T", 512, 64, true, 71.49},
}

// ScaledSystem returns the A100 system with its matrix-efficiency curve
// multiplied by the factor (clamped to 1.0 — nothing exceeds peak).
func ScaledSystem(procs int, factor float64) system.System {
	s := system.A100(procs)
	pts := s.Compute.MatrixEff.Points()
	for i := range pts {
		pts[i].Eff = math.Min(1, pts[i].Eff*factor)
	}
	s.Compute.MatrixEff = system.NewEfficiencyCurve(pts...)
	return s
}

// Error returns the mean absolute relative error across the Table 2
// anchors when the matrix-efficiency curve is scaled by the factor.
func Error(factor float64) (float64, error) {
	if factor <= 0 {
		return 0, fmt.Errorf("calibrate: factor must be positive, got %g", factor)
	}
	var sum float64
	for _, a := range anchors {
		m := model.MustPreset(a.preset)
		st := execution.Strategy{
			TP: 8, PP: a.pp, DP: 1, Microbatch: 1, Interleave: 1, OneFOneB: true,
			Recompute: execution.RecomputeFull,
		}
		if a.seqSel {
			st.Recompute = execution.RecomputeAttn
			st.TPRSAG, st.SeqParallel = true, true
		}
		res, err := perf.Run(m, ScaledSystem(a.gpus, factor), st)
		if err != nil {
			return 0, fmt.Errorf("calibrate: %s: %w", a.preset, err)
		}
		sum += math.Abs(float64(res.BatchTime)-a.seconds) / a.seconds
	}
	return sum / float64(len(anchors)), nil
}

// FitResult is the outcome of a calibration sweep.
type FitResult struct {
	// BestFactor is the curve scale minimizing the average error.
	BestFactor float64
	// BestError is the error at that factor.
	BestError float64
	// UnitError is the error of the shipped curves (factor 1.0).
	UnitError float64
	// Sweep holds every (factor, error) point evaluated.
	Sweep []SweepPoint
}

// SweepPoint is one evaluated calibration factor.
type SweepPoint struct {
	Factor float64
	Error  float64
}

// Fit sweeps scale factors over [lo, hi] in the given number of steps and
// returns the best one alongside the shipped curves' error.
func Fit(lo, hi float64, steps int) (FitResult, error) {
	if !(lo > 0 && hi > lo) || steps < 2 {
		return FitResult{}, fmt.Errorf("calibrate: bad sweep [%g,%g]×%d", lo, hi, steps)
	}
	var out FitResult
	out.BestError = math.Inf(1)
	for i := 0; i < steps; i++ {
		f := lo + (hi-lo)*float64(i)/float64(steps-1)
		e, err := Error(f)
		if err != nil {
			return out, err
		}
		out.Sweep = append(out.Sweep, SweepPoint{Factor: f, Error: e})
		if e < out.BestError {
			out.BestFactor, out.BestError = f, e
		}
	}
	unit, err := Error(1)
	if err != nil {
		return out, err
	}
	out.UnitError = unit
	return out, nil
}
