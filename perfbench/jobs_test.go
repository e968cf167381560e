package main

import (
	"reflect"
	"testing"
)

func TestLibraryJobsFollowTheSeed(t *testing.T) {
	for _, wl := range []string{wlEagle, wlGrid} {
		a, b := libraryJobs(wl, 5), libraryJobs(wl, 5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different job lists", wl)
		}
		if len(a) != libraryListLen[wl] {
			t.Errorf("%s: %d jobs, want %d", wl, len(a), libraryListLen[wl])
		}
		if reflect.DeepEqual(a, libraryJobs(wl, 6)) {
			t.Errorf("%s: different seeds, same job list", wl)
		}
	}
}

func TestServiceStreamMix(t *testing.T) {
	s := serviceStream(9)
	if !reflect.DeepEqual(s, serviceStream(9)) {
		t.Fatal("same seed, different streams")
	}
	if len(s) != mixStreamLen {
		t.Fatalf("stream has %d jobs, want %d", len(s), mixStreamLen)
	}
	seen := map[any]bool{}
	stages := map[any]bool{}
	for i, j := range s {
		if j.Opts.LB == warmupOptions.LB && j.Kind != kindResubmit {
			t.Fatalf("job %d shares the warm-up job's lb", i)
		}
		stage := [2]any{j.Opts.Topology, j.Opts.LB}
		switch j.Kind {
		case kindResubmit:
			blockStart := i - i%mixBlock
			switch {
			case j.From < 0:
				if blockStart != 0 || j.Opts != warmupOptions {
					t.Fatalf("job %d resubmits the warm-up job outside block 0", i)
				}
			case j.From >= blockStart || s[j.From].Kind == kindResubmit || s[j.From].Opts != j.Opts:
				t.Fatalf("job %d does not repeat a computed request of an earlier block", i)
			}
			continue
		case kindCold:
			if stages[stage] {
				t.Fatalf("job %d is cold on a stage key already built", i)
			}
		case kindVariant:
			if !stages[stage] || seen[j.Opts] {
				t.Fatalf("job %d is not a fresh seed on a built stage key", i)
			}
		}
		seen[j.Opts] = true
		stages[stage] = true
	}
	if len(stages) != 4 {
		t.Errorf("stream spans %d stage keys, want 4", len(stages))
	}
	for b := 0; b < len(s); b += mixBlock {
		count := map[string]int{}
		for _, j := range s[b : b+mixBlock] {
			switch {
			case j.Kind == kindResubmit:
				count[kindResubmit]++
			case j.Opts.Placer == "" && j.Opts.Legalizer == "" && j.Opts.DetailedPlacer == "":
				count["server defaults"]++
			case j.Opts.Legalizer == "":
				count["shelf"]++
			default:
				count[j.Opts.Legalizer]++
			}
		}
		want := map[string]int{kindResubmit: mixResubmits, "server defaults": 4, "shelf": 1, "greedy": 2}
		if !reflect.DeepEqual(count, want) {
			t.Fatalf("block at %d has mix %v, want %v", b, count, want)
		}
	}
}
