package qplacer

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

// timingOptions is a fast traced run used across the timings tests: the
// golden corpus's small grid configuration.
func timingOptions() []Option {
	return []Option{
		WithTopology("grid"),
		WithMaxIters(40),
		WithValidation(ValidationAnnotate),
	}
}

func TestPlanTimingsBreakdown(t *testing.T) {
	eng := New()
	plan, err := eng.Plan(context.Background(), timingOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	tm := plan.Timings
	if tm == nil {
		t.Fatal("traced plan has nil Timings")
	}
	if tm.Name != "plan" || tm.Count != 1 {
		t.Fatalf("root = %q count %d, want plan count 1", tm.Name, tm.Count)
	}
	if tm.WallMS <= 0 {
		t.Fatalf("root wall = %v, want > 0", tm.WallMS)
	}
	for _, path := range [][]string{
		{"stage"}, {"stage", "build"}, {"netlist.clone"},
		{"place"}, {"place", "wirelength"}, {"place", "density"},
		{"place", "density", "rasterize"},
		{"place", "density", "poisson"},
		{"place", "density", "poisson", "fft"},
		{"place", "density", "poisson", "spectral"},
		{"place", "density", "field"},
		{"place", "frequency"}, {"place", "chain"}, {"place", "boundary"},
		{"place", "combine"},
		{"legalize"}, {"legalize", "qubits"},
		{"legalize", "refine"}, {"legalize", "segments"},
		{"legalize", "integrate"}, {"legalize", "compact"},
		{"metrics"}, {"validate"},
	} {
		if tm.Find(path...) == nil {
			t.Errorf("span %v missing from breakdown", path)
		}
	}
	// The legalizer reads the stage collision map, so it has no set-up work
	// to time.
	if tm.Find("legalize", "setup") != nil {
		t.Error("legalize carries a setup span")
	}
	// The gradient sub-spans aggregate across iterations: the density solve
	// runs at least once per iteration.
	if den := tm.Find("place", "density"); den.Count < int64(plan.PlaceIterations) {
		t.Errorf("density count = %d, want >= %d iterations", den.Count, plan.PlaceIterations)
	}
}

// TestLegalizeSpanNotesGuardFallbacks pins the legalizers' fallback ledger:
// under both built-in legalizers a plan's legalize span carries exactly one
// guard-fallback note.
func TestLegalizeSpanNotesGuardFallbacks(t *testing.T) {
	for _, name := range []string{"shelf", "greedy"} {
		plan, err := New().Plan(context.Background(), append(timingOptions(), WithLegalizer(name))...)
		if err != nil {
			t.Fatal(err)
		}
		leg := plan.Timings.Find("legalize")
		if leg == nil {
			t.Fatalf("%s: no legalize span", name)
		}
		found := 0
		for _, note := range leg.Notes {
			var fallbacks, failures int
			if _, err := fmt.Sscanf(note, "guard fallbacks: %d, spot failures: %d", &fallbacks, &failures); err == nil {
				found++
			}
		}
		if found != 1 {
			t.Errorf("%s: legalize notes %q carry %d guard-fallback notes, want 1", name, leg.Notes, found)
		}
	}
}

// TestPlanTimingsCoverage pins the acceptance criterion: the top-level stage
// spans account for (at least) 90% of total plan wall time.
func TestPlanTimingsCoverage(t *testing.T) {
	eng := New()
	plan, err := eng.Plan(context.Background(), timingOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	tm := plan.Timings
	var sum float64
	for _, c := range tm.Children {
		sum += c.WallMS
	}
	if sum < 0.9*tm.WallMS || sum > 1.1*tm.WallMS {
		t.Fatalf("stage spans sum to %.3fms of %.3fms total (outside 10%%)", sum, tm.WallMS)
	}
}

// collectTopology flattens a breakdown into (name, count) pairs in tree
// order, the deterministic signature two identical runs must share.
func collectTopology(tm *SpanTiming, prefix string, out *[]string) {
	*out = append(*out, prefix+tm.Name+"#"+string(rune('0'+tm.Count%10)))
	for _, c := range tm.Children {
		collectTopology(c, prefix+tm.Name+"/", out)
	}
}

func TestSpanTreeDeterminism(t *testing.T) {
	var sigs [2][]string
	for i := range sigs {
		eng := New()
		plan, err := eng.Plan(context.Background(), timingOptions()...)
		if err != nil {
			t.Fatal(err)
		}
		collectTopology(plan.Timings, "", &sigs[i])
	}
	if len(sigs[0]) != len(sigs[1]) {
		t.Fatalf("span tree sizes differ: %d vs %d", len(sigs[0]), len(sigs[1]))
	}
	for i := range sigs[0] {
		if sigs[0][i] != sigs[1][i] {
			t.Fatalf("span topology differs at %d: %q vs %q", i, sigs[0][i], sigs[1][i])
		}
	}
}

func TestWithTracingOff(t *testing.T) {
	eng := New(WithTracing(false))
	plan, err := eng.Plan(context.Background(), WithTopology("grid"), WithMaxIters(5))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Timings != nil {
		t.Fatalf("untraced plan has Timings: %+v", plan.Timings)
	}
}

func TestWarmHitSharesColdTimings(t *testing.T) {
	eng := New()
	opts := []Option{WithTopology("grid"), WithMaxIters(5)}
	cold, err := eng.Plan(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Plan(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatal("second plan was not a cache hit")
	}
	if warm.Timings == nil {
		t.Fatal("warm hit lost the cold run's timings")
	}
	stats := eng.Stats()
	if stats.PlanCacheHits != 1 || stats.PlanCacheMisses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", stats)
	}
	if stats.StageCacheMisses != 1 {
		t.Fatalf("stage misses = %d, want 1", stats.StageCacheMisses)
	}
}

func TestTimingsJSONShape(t *testing.T) {
	eng := New()
	plan, err := eng.Plan(context.Background(), WithTopology("grid"), WithMaxIters(5))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Timings *SpanTiming `json:"timings"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Timings == nil || doc.Timings.Name != "plan" {
		t.Fatalf("timings did not round-trip: %+v", doc.Timings)
	}

	// An untraced plan must omit the block entirely.
	eng2 := New(WithTracing(false))
	plan2, err := eng2.Plan(context.Background(), WithTopology("grid"), WithMaxIters(5))
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := json.Marshal(plan2)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw2, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["timings"]; ok {
		t.Fatal("untraced plan JSON carries a timings block")
	}
}

func TestSpanTimingFind(t *testing.T) {
	tm := &SpanTiming{Name: "plan", Children: []*SpanTiming{
		{Name: "place", Children: []*SpanTiming{{Name: "density"}}},
	}}
	if got := tm.Find(); got != tm {
		t.Fatal("Find() should return the receiver")
	}
	if got := tm.Find("place", "density"); got == nil || got.Name != "density" {
		t.Fatalf("Find(place, density) = %+v", got)
	}
	if got := tm.Find("nope"); got != nil {
		t.Fatalf("Find(nope) = %+v, want nil", got)
	}
	var nilT *SpanTiming
	if got := nilT.Find("x"); got != nil {
		t.Fatal("nil.Find should be nil")
	}
}
