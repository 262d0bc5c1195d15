// Package perf is the core of the Calculon reproduction: the analytical
// performance model of §2.4. Given the three specifications — LLM, system,
// and execution strategy — it produces a complete estimate of batch time
// with a breakdown (forward, backward, recompute, optimizer, pipeline
// bubble, exposed TP/PP/DP communication, exposed offload transfers), a
// memory breakdown per tier (weights, weight gradients, activations,
// activation gradients, optimizer state), sample rate, model-FLOP
// utilization, and the offload bandwidth/capacity requirements of §6.
package perf

import (
	"errors"
	"fmt"

	"calculon/internal/execution"
	"calculon/internal/model"
	"calculon/internal/units"
)

// ErrInfeasible tags configurations that cannot run — insufficient memory,
// missing offload tier, too few processors, or structural rule violations.
// Search engines count these rather than failing.
var ErrInfeasible = errors.New("infeasible configuration")

// infeasible builds an ErrInfeasible-wrapped error without formatting the
// message: search paths reject millions of configurations and read none of
// the messages, so the fmt work (and the log10-based unit rendering it
// triggers) is deferred until someone calls Error().
func infeasible(format string, args ...any) error {
	return &infeasibleError{format: format, args: args}
}

type infeasibleError struct {
	format string
	args   []any
}

func (e *infeasibleError) Error() string {
	return fmt.Sprintf("%v: "+e.format, append([]any{ErrInfeasible}, e.args...)...)
}

func (e *infeasibleError) Unwrap() error { return ErrInfeasible }

// memError is the memory-overflow verdict: tier memN needs more bytes than
// it has. It keeps the operands as typed fields so the verdict costs one
// allocation — no argument slice, no boxed units.Bytes — and formats them
// only when Error() is called.
type memError struct {
	tier       int
	need, have units.Bytes
}

func (e *memError) Error() string {
	return fmt.Sprintf("%v: mem%d needs %v of %v", ErrInfeasible, e.tier, e.need, e.have)
}

func (e *memError) Unwrap() error { return ErrInfeasible }

// TimeBreakdown reports where the batch time went (all values are per batch
// on the critical path; the Exposed entries are the blocking portions of the
// corresponding communication totals).
type TimeBreakdown struct {
	FwdPass   units.Seconds `json:"fw_pass"`
	BwdPass   units.Seconds `json:"bw_pass"`
	Recompute units.Seconds `json:"fw_recompute"`
	OptimStep units.Seconds `json:"optim_step"`
	PPBubble  units.Seconds `json:"pp_bubble"`

	TPComm units.Seconds `json:"tp_comm"`
	PPComm units.Seconds `json:"pp_comm"`
	DPComm units.Seconds `json:"dp_comm"`

	TPExposed units.Seconds `json:"tp_exposed"`
	PPExposed units.Seconds `json:"pp_exposed"`
	DPExposed units.Seconds `json:"dp_exposed"`

	OffloadTotal   units.Seconds `json:"offload_total"`
	OffloadExposed units.Seconds `json:"offload_exposed"`
}

// Total is the batch time: every compute phase plus exposed communication
// and exposed offload transfers.
func (t TimeBreakdown) Total() units.Seconds {
	return t.FwdPass + t.BwdPass + t.Recompute + t.OptimStep + t.PPBubble +
		t.TPExposed + t.PPExposed + t.DPExposed + t.OffloadExposed
}

// MemBreakdown reports the bytes used in one memory tier by category,
// matching the paper's Fig. 3/4 stacks.
type MemBreakdown struct {
	Weights     units.Bytes `json:"weights"`
	WeightGrads units.Bytes `json:"weight_grads"`
	Activations units.Bytes `json:"activations"`
	ActGrads    units.Bytes `json:"act_grads"`
	Optimizer   units.Bytes `json:"optimizer"`
}

// Total is the tier's total consumption.
func (m MemBreakdown) Total() units.Bytes {
	return m.Weights + m.WeightGrads + m.Activations + m.ActGrads + m.Optimizer
}

// Result is the complete output of one model evaluation.
type Result struct {
	Model    model.LLM          `json:"model"`
	System   string             `json:"system"`
	Strategy execution.Strategy `json:"strategy"`

	// BatchTime is the end-to-end time of one training batch (or one
	// forward pass over the batch for inference strategies).
	BatchTime units.Seconds `json:"batch_time"`
	// SampleRate is samples processed per second.
	SampleRate float64 `json:"sample_rate"`
	// MFU is model-FLOP utilization: useful model FLOPs (no recompute)
	// divided by peak matrix FLOPs of the processors used.
	MFU float64 `json:"mfu"`

	Time TimeBreakdown `json:"time"`
	// Mem1 and Mem2 are the per-processor consumption of each tier.
	Mem1 MemBreakdown `json:"mem1"`
	Mem2 MemBreakdown `json:"mem2"`

	// OffloadBWRequired is Eq. 1's seamless-offload bandwidth: the second-
	// level memory bandwidth at which no offload time would be exposed.
	OffloadBWRequired units.BytesPerSec `json:"offload_bw_required"`
	// OffloadBWUsed is the bandwidth actually sustained on the tier.
	OffloadBWUsed units.BytesPerSec `json:"offload_bw_used"`

	// ProcsUsed is t·p·d.
	ProcsUsed int `json:"procs_used"`
}

func (r Result) String() string {
	return fmt.Sprintf("%s on %s %v: batch=%v rate=%.1f/s MFU=%.1f%% mem1=%v mem2=%v",
		r.Model.Name, r.System, r.Strategy, r.BatchTime, r.SampleRate, 100*r.MFU,
		r.Mem1.Total(), r.Mem2.Total())
}
