package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: the rule must not rely on input order
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		ok     bool
		pct    int
		value  float64
		reason string
	}{
		{n: 9, ok: false, reason: "nothing qualifies"},
		{n: 99, ok: false, reason: "p90 at rank 90 leaves 9 beyond"},
		{n: 100, ok: true, pct: 90, value: 90, reason: "p90 at rank 90 leaves 10 beyond"},
		{n: 999, ok: true, pct: 90, value: 900, reason: "p99 at rank 990 leaves 9 beyond"},
		{n: 1000, ok: true, pct: 99, value: 990, reason: "p99 at rank 990 leaves 10 beyond"},
	} {
		pct, v, ok := tailPercentile(seq(tc.n))
		if ok != tc.ok || pct != tc.pct || v != tc.value {
			t.Errorf("n=%d (%s): got p%d=%v ok=%v, want p%d=%v ok=%v", tc.n, tc.reason, pct, v, ok, tc.pct, tc.value, tc.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("empty median = %v, want NaN", got)
	}
}

func TestRatioBases(t *testing.T) {
	if got := (ratio{0, 0}).value(); got != 0 {
		t.Errorf("empty base = %v, want 0", got)
	}
	m := &measured{
		setup:  []float64{2, 1, 3},
		walls:  []float64{1, 1, 1, 5},
		errs:   []error{nil, errors.New("invalid"), nil, nil},
		wall:   8 * time.Second,
		cpu:    12 * time.Second,
		alloc:  4e9,
		amer:   []float64{10, 20},
		ph:     []float64{0, 1},
		fidels: []float64{0.25, 0.75},
	}
	r := m.report()
	want := map[string]float64{
		"setup_s":          2,
		"job_s_p50":        1,
		"jobs_per_s":       3.0 / 8, // jobs that passed every check, over the measured wall time
		"cpu_s_per_job":    3,       // CPU over attempted jobs, failed ones included
		"alloc_mb_per_job": 1000,    // likewise
		"amer_mm2":         15,
		"ph_free_pct":      99.5,
		"fidelity_mean":    0.5,
		"ok_ratio":         0.75, // passed over attempted
	}
	for name, v := range want {
		if got := r.values[name]; math.Abs(got-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if r.attempted != 4 || r.failed != 1 || !r.correct {
		t.Errorf("attempted=%d failed=%d correct=%v, want 4, 1, true (a failed job is counted, not fatal)", r.attempted, r.failed, r.correct)
	}
	m.errs = []error{errors.New("invalid"), errors.New("invalid"), errors.New("invalid"), errors.New("invalid")}
	if r := m.report(); r.correct || r.values["ok_ratio"] != 0 {
		t.Errorf("a run whose every job failed: correct=%v ok_ratio=%v, want false, 0", r.correct, r.values["ok_ratio"])
	}
}

func TestFidelityMeanMustBePositive(t *testing.T) {
	m := &measured{setup: []float64{1}, walls: []float64{1}, errs: []error{nil}, wall: time.Second,
		amer: []float64{1}, ph: []float64{0}, fidels: []float64{0}}
	if r := m.report(); r.correct {
		t.Error("a run whose fidelity_mean is 0 reported correct")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	tr := &tracer{}
	root := tr.record(7, -1, "job", at(0), at(100))
	tr.record(7, root, "a", at(10), at(30))
	tr.record(7, root, "b", at(20), at(50))  // overlaps a
	tr.record(7, root, "a", at(90), at(120)) // runs past the parent
	self := tr.selfTimes()
	if got := self["job"]; len(got) != 1 || got[0] != 50*time.Millisecond {
		t.Errorf("job self time = %v, want [50ms] (covered: 10-50 and 90-100)", got)
	}
	if got := self["a"]; len(got) != 1 || got[0] != 50*time.Millisecond {
		t.Errorf("a self time = %v, want one per-job sum of 50ms", got)
	}
}

func TestRSSPeakPerInterval(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &rssSampler{
		at: []time.Time{at(0), at(5), at(10), at(15), at(20)},
		mb: []float64{100, 180, 150, 120, 300},
	}
	for _, tc := range []struct {
		start, end int
		want       float64
	}{
		{0, 15, 180},  // largest sample inside
		{10, 15, 150}, // samples on the edges count
		{11, 14, 150}, // none inside: the last one before the end
		{-5, -1, 0},   // before the first sample
		{16, 40, 300},
	} {
		if got := s.peakMB(at(tc.start), at(tc.end)); got != tc.want {
			t.Errorf("peak over [%d, %d] ms = %v, want %v", tc.start, tc.end, got, tc.want)
		}
	}
}
