package parallel

import "testing"

func TestGate(t *testing.T) {
	p := New(2)
	defer p.Close()
	if Gate(nil, 1<<30, 0) != nil {
		t.Error("Gate must keep a nil pool nil")
	}
	if Gate(p, 100, 101) != nil {
		t.Error("work below cutoff must gate to serial")
	}
	if Gate(p, 100, 100) != p {
		t.Error("work at cutoff must keep the pool")
	}
	if Gate(p, 100, 0) != p {
		t.Error("zero cutoff must always keep the pool")
	}
}

// TestAutoCutoffsDeterministicPerProcess pins the calibration contract: the
// measurement runs once and every caller sees the same host snapshot, so all
// engines in a process gate identically.
func TestAutoCutoffsDeterministicPerProcess(t *testing.T) {
	a := AutoCutoffs()
	b := AutoCutoffs()
	if a != b {
		t.Fatalf("AutoCutoffs not cached: %+v != %+v", a, b)
	}
	for name, c := range map[string]int{
		"WirelengthItems": a.WirelengthItems,
		"PairItems":       a.PairItems,
		"RasterCells":     a.RasterCells,
		"SolveCells":      a.SolveCells,
		"PointItems":      a.PointItems,
	} {
		if c < 64 || c > 1<<20 {
			t.Errorf("%s = %d outside the clamp range [64, 1<<20]", name, c)
		}
	}
}

// Heavier per-item stages must never get a higher cutoff than lighter ones:
// they amortize dispatch sooner.
func TestAutoCutoffsOrdering(t *testing.T) {
	c := AutoCutoffs()
	if c.WirelengthItems > c.RasterCells {
		t.Errorf("wirelength cutoff %d should not exceed raster cutoff %d",
			c.WirelengthItems, c.RasterCells)
	}
}
