package system

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"calculon/internal/units"
)

// logInterp is At as it was before anchors cached their logarithms: three
// log10 calls per interpolation. It stays here as the reference the cached
// form must match bit for bit.
func logInterp(c []EffPoint, size float64) float64 {
	if len(c) == 0 {
		return 1
	}
	if size <= c[0].Size {
		return c[0].Eff
	}
	last := c[len(c)-1]
	if size >= last.Size {
		return last.Eff
	}
	for i := 1; i < len(c); i++ {
		if size <= c[i].Size {
			lo, hi := c[i-1], c[i]
			f := (math.Log10(size) - math.Log10(lo.Size)) / (math.Log10(hi.Size) - math.Log10(lo.Size))
			return lo.Eff + f*(hi.Eff-lo.Eff)
		}
	}
	return last.Eff
}

// shippedSystems decodes every system config under configs/systems.
func shippedSystems(t *testing.T) map[string]System {
	t.Helper()
	files, err := filepath.Glob("../../configs/systems/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped system configs found: %v", err)
	}
	out := make(map[string]System, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var s System
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[filepath.Base(f)] = s
	}
	return out
}

// allCurves gathers every curve of every preset and shipped-config system,
// named by where it sits.
func allCurves(t *testing.T) map[string]EfficiencyCurve {
	t.Helper()
	systems := shippedSystems(t)
	for _, name := range PresetNames() {
		systems["preset "+name] = MustPreset(name, 64)
	}
	out := map[string]EfficiencyCurve{}
	for name, s := range systems {
		out[name+" matrix"] = s.Compute.MatrixEff
		out[name+" vector"] = s.Compute.VectorEff
		out[name+" mem1"] = s.Mem1.Efficiency
		out[name+" mem2"] = s.Mem2.Efficiency
		for _, n := range s.Networks {
			out[name+" "+n.Name] = n.Efficiency
		}
	}
	return out
}

// TestAtMatchesThreeLogFormula pins the cached-logarithm At to the old
// three-log formula, bit for bit, on every preset and shipped-config curve:
// at each anchor and its floating-point neighbours, between anchors, and
// outside the anchored range.
func TestAtMatchesThreeLogFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for name, c := range allCurves(t) {
		pts := c.Points()
		if len(pts) == 0 {
			continue
		}
		sizes := []float64{pts[0].Size / 10, pts[len(pts)-1].Size * 10, 1, math.MaxFloat64}
		for i, p := range pts {
			sizes = append(sizes, p.Size, math.Nextafter(p.Size, 0), math.Nextafter(p.Size, math.Inf(1)))
			if i > 0 {
				lo := pts[i-1].Size
				sizes = append(sizes, math.Sqrt(lo*p.Size), (lo+p.Size)/2)
				for j := 0; j < 16; j++ {
					sizes = append(sizes, lo*math.Pow(p.Size/lo, rng.Float64()))
				}
			}
		}
		for _, s := range sizes {
			got, want := c.At(s), logInterp(pts, s)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: At(%g) = %v, three-log formula gives %v", name, s, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no curve checked")
	}
}

// TestCurveJSONRoundTrip decodes and re-encodes every curve: the bytes come
// back identical, and the decoded curve equals the original, cached
// logarithms included.
func TestCurveJSONRoundTrip(t *testing.T) {
	for name, c := range allCurves(t) {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back EfficiencyCurve
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s: round trip changed the encoding:\n%s\n%s", name, data, again)
		}
		if !reflect.DeepEqual(c, back) {
			t.Errorf("%s: decoded curve differs from the original", name)
		}
	}
}

// TestShippedSystemsReencodeIdentically decodes each shipped system config
// and re-encodes it with the files' indentation: the bytes must match the
// file, so a curve's JSON form — omitted when empty — is exactly what it
// was as a plain list of points.
func TestShippedSystemsReencodeIdentically(t *testing.T) {
	for name, s := range shippedSystems(t) {
		want, err := os.ReadFile(filepath.Join("../../configs/systems", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.TrimSpace(want), got) {
			t.Errorf("%s: re-encoding differs from the shipped file", name)
		}
	}
	bare, err := json.Marshal(Memory{Capacity: units.GiB, Bandwidth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(bare), "efficiency") {
		t.Errorf("empty curve not omitted: %s", bare)
	}
}

// BenchmarkEfficiencyCurveAt measures one interpolated lookup on the A100
// matrix curve, across sizes below, inside and above its anchors.
func BenchmarkEfficiencyCurveAt(b *testing.B) {
	c := a100MatrixEff
	sizes := []float64{3e7, 2.5e8, 4e9, 7e10, 3e11, 5e12, 2e13}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += c.At(sizes[i%len(sizes)])
	}
	if sink < 0 {
		b.Fatal(sink)
	}
}
