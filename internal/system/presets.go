package system

import (
	"fmt"
	"sort"

	"calculon/internal/units"
)

// The GEMM-efficiency-versus-size curves below are the one place where the
// original tool relies on unpublished vendor measurements. We substitute
// piecewise-linear curves (keyed by the FLOP count of the operation)
// calibrated so that the paper's validation anchors land close:
//   - Table 2 — Selene batch times for Megatron 22B/175B/530B/1T within a
//     few percent,
//   - Fig. 3 — GPT-3 175B at (t,p,d)=(8,64,8) on 4096 A100s ≈ 16.7 s batch
//     time with ≈ 17.4 GiB of HBM in use.
//
// The curves have the standard roofline shape: tiny GEMMs are launch- and
// memory-bound, multi-TFLOP GEMMs approach peak.
var a100MatrixEff = NewEfficiencyCurve(
	EffPoint{Size: 1e8, Eff: 0.15},
	EffPoint{Size: 1e9, Eff: 0.30},
	EffPoint{Size: 1e10, Eff: 0.50},
	EffPoint{Size: 1e11, Eff: 0.68},
	EffPoint{Size: 1e12, Eff: 0.78},
	EffPoint{Size: 1e13, Eff: 0.82},
)

var a100VectorEff = NewEfficiencyCurve(
	EffPoint{Size: 1e6, Eff: 0.20},
	EffPoint{Size: 1e8, Eff: 0.55},
	EffPoint{Size: 1e9, Eff: 0.80},
	EffPoint{Size: 1e10, Eff: 0.90},
)

var hbmEff = NewEfficiencyCurve(
	EffPoint{Size: 1e5, Eff: 0.30},
	EffPoint{Size: 1e7, Eff: 0.70},
	EffPoint{Size: 1e8, Eff: 0.85},
	EffPoint{Size: 1e9, Eff: 0.92},
)

var nvlinkEff = NewEfficiencyCurve(
	EffPoint{Size: 1e5, Eff: 0.25},
	EffPoint{Size: 1e6, Eff: 0.55},
	EffPoint{Size: 1e7, Eff: 0.75},
	EffPoint{Size: 1e8, Eff: 0.85},
)

var ibEff = NewEfficiencyCurve(
	EffPoint{Size: 1e5, Eff: 0.35},
	EffPoint{Size: 1e6, Eff: 0.65},
	EffPoint{Size: 1e7, Eff: 0.85},
	EffPoint{Size: 1e8, Eff: 0.92},
)

// A100 returns a Selene-like system of the given size: A100-80GiB GPUs
// (312 TFLOP/s fp16 tensor, 78 TFLOP/s vector, 2 TB/s HBM2e) in NVLink
// clusters of 8 (300 GB/s per direction per GPU) joined by InfiniBand HDR
// (25 GB/s per GPU). §5.2 of the paper allocates up to 15% of the cores to
// NCCL kernels on NVLink and 2% to drive the slower network; those become
// the ProcUse taxes here.
func A100(procs int) System {
	return System{
		Name:  "a100-80g",
		Procs: procs,
		Compute: Compute{
			MatrixPeak: 312e12,
			VectorPeak: 78e12,
			MatrixEff:  a100MatrixEff,
			VectorEff:  a100VectorEff,
		},
		Mem1: Memory{
			Capacity:   80 * units.GiB,
			Bandwidth:  2.0e12,
			Efficiency: hbmEff,
		},
		Networks: []Network{
			{
				Name: "nvlink", Size: 8, Bandwidth: 300e9, Latency: 2e-6,
				Efficiency: nvlinkEff, ProcUse: 0.15,
			},
			{
				Name: "ib-hdr", Size: 0, Bandwidth: 25e9, Latency: 5e-6,
				Efficiency: ibEff, InNetworkCollectives: true, ProcUse: 0.02,
			},
		},
	}
}

// H100 returns the theoretical H100-based design of §7: ~1 PFLOP/s fp16
// matrix throughput, HBM3 at 3 TB/s (capacity chosen per design point),
// NVLink4 at 450 GB/s per direction in clusters of 8, NDR InfiniBand at
// 50 GB/s. The offload tier, when present, is DDR5 at 100 GB/s per direction
// driven by a TMA-like DMA engine that consumes no processor compute (§6).
func H100(procs int, hbm units.Bytes, ddr units.Bytes) System {
	s := System{
		Name:  "h100",
		Procs: procs,
		Compute: Compute{
			MatrixPeak: 990e12,
			VectorPeak: 120e12,
			MatrixEff:  a100MatrixEff,
			VectorEff:  a100VectorEff,
		},
		Mem1: Memory{
			Capacity:   hbm,
			Bandwidth:  3.0e12,
			Efficiency: hbmEff,
		},
		Networks: []Network{
			{
				Name: "nvlink4", Size: 8, Bandwidth: 450e9, Latency: 2e-6,
				Efficiency: nvlinkEff, ProcUse: 0.15,
			},
			{
				Name: "ib-ndr", Size: 0, Bandwidth: 50e9, Latency: 5e-6,
				Efficiency: ibEff, InNetworkCollectives: true, ProcUse: 0.02,
			},
		},
	}
	if ddr > 0 {
		s.Mem2 = DDR5(ddr)
	}
	return s
}

// SuperPod returns a three-tier A100 fabric: NVLink islands of 8, a
// rail-optimized leaf network giving full HDR bandwidth within 256-GPU
// scalable units, and an oversubscribed spine above them. It exercises the
// model's arbitrary-network-list support (§2.2: "each processor is able to
// connect to an arbitrary number of networks").
func SuperPod(procs int) System {
	s := A100(procs)
	s.Name = "a100-superpod"
	s.Networks = []Network{
		{
			Name: "nvlink", Size: 8, Bandwidth: 300e9, Latency: 2e-6,
			Efficiency: nvlinkEff, ProcUse: 0.15,
		},
		{
			Name: "ib-leaf", Size: 256, Bandwidth: 25e9, Latency: 4e-6,
			Efficiency: ibEff, InNetworkCollectives: true, ProcUse: 0.02,
		},
		{
			Name: "ib-spine", Size: 0, Bandwidth: 12.5e9, Latency: 7e-6,
			Efficiency: ibEff, InNetworkCollectives: true, ProcUse: 0.02,
		},
	}
	return s
}

// DDR5 builds the secondary offload memory used throughout §6/§7: the given
// capacity at 100 GB/s per direction.
func DDR5(capacity units.Bytes) Memory {
	return Memory{Capacity: capacity, Bandwidth: 100e9}
}

// InfiniteMem2 is the probing tier of §6's requirements analysis: unlimited
// capacity and bandwidth, so the model reports how much the best execution
// strategy would consume.
func InfiniteMem2() Memory {
	return Memory{Capacity: units.UnboundedBytes, Bandwidth: units.UnboundedBytesPerSec}
}

// Preset returns a named system sized to the given processor count.
func Preset(name string, procs int) (System, error) {
	switch name {
	case "a100-80g", "a100", "selene":
		return A100(procs), nil
	case "a100-40g":
		return A100(procs).WithMem1Capacity(40 * units.GiB), nil
	case "a100-superpod", "superpod":
		return SuperPod(procs), nil
	case "h100-80g", "h100":
		return H100(procs, 80*units.GiB, 0), nil
	case "h100-80g-ddr512":
		return H100(procs, 80*units.GiB, 512*units.GiB), nil
	default:
		return System{}, fmt.Errorf("system: unknown preset %q (have %v)", name, PresetNames())
	}
}

// MustPreset is Preset for static names in examples and tests.
func MustPreset(name string, procs int) System {
	s, err := Preset(name, procs)
	if err != nil {
		panic(err)
	}
	return s
}

// PresetNames lists the available system presets.
func PresetNames() []string {
	names := []string{"a100-80g", "a100-40g", "a100-superpod", "h100-80g", "h100-80g-ddr512"}
	sort.Strings(names)
	return names
}
