package main

import (
	"context"
	"testing"

	"qplacer"
)

func TestStagedPipelineMatchesEnginePlan(t *testing.T) {
	ctx := context.Background()
	for _, opts := range []qplacer.Options{
		{Topology: "falcon", Seed: 3, Legalizer: "greedy", DetailedPlacer: "mcmf"},
		{Topology: "grid", Seed: 2, Legalizer: "greedy", DetailedPlacer: "swap"},
	} {
		want := engineJob(ctx, opts)
		tr := &tracer{}
		got := runStaged(ctx, opts, tr, 0)
		if want.err != nil || got.err != nil {
			t.Fatalf("%+v: Engine.Plan err %v, staged err %v", opts, want.err, got.err)
		}
		if err := checkParity(want.plan, got.plan); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if want.batch.MeanFidelity != got.batch.MeanFidelity {
			t.Errorf("%+v: fidelity %v from the engine, %v staged", opts, want.batch.MeanFidelity, got.batch.MeanFidelity)
		}
		for _, l := range []string{layerStage, layerPlace, layerLegal, layerDetail, layerMetrics, layerValidate, layerEvaluate} {
			if _, ok := got.layers[l]; !ok {
				t.Errorf("%+v: no %s span", opts, l)
			}
		}

		// A moved instance or a stale report must break parity.
		got.plan.Netlist.Instances[0].Pos.X += 1e-9
		if checkParity(want.plan, got.plan) == nil {
			t.Errorf("%+v: parity passed with a moved instance", opts)
		}
		got.plan.Netlist.Instances[0].Pos.X = want.plan.Netlist.Instances[0].Pos.X
		amer := *got.plan.Metrics
		amer.Amer++
		got.plan.Metrics = &amer
		if checkParity(want.plan, got.plan) == nil {
			t.Errorf("%+v: parity passed with a different metrics report", opts)
		}
	}
}

func TestServiceFlowAndCrossCheck(t *testing.T) {
	svc, _, err := serviceSetup(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.stop()
	jobs := []serviceJob{svc.runJob(warmupOptions, true), svc.runJob(warmupOptions, true)}
	for i, j := range jobs {
		if j.err != nil {
			t.Fatalf("job %d: %v", i, j.err)
		}
	}
	if !jobs[0].cached || !jobs[1].cached {
		t.Error("resubmits of the warm-up job were not served from the dedup cache")
	}
	crossCheck(context.Background(), jobs)
	for i, j := range jobs {
		if j.err != nil {
			t.Errorf("job %d failed the in-process cross-check: %v", i, j.err)
		}
	}
	// A served document that disagrees with the in-process plan fails.
	bad := jobs[:1]
	bad[0].doc.Batch.MeanFidelity /= 2
	crossCheck(context.Background(), bad)
	if bad[0].err == nil {
		t.Error("cross-check passed a tampered mean fidelity")
	}
}

// A resubmit sent while the job it repeats is still running would join that
// live job. driveMix must hold it until the job has finished, so the server
// answers it as a dedup hit on a done job.
func TestDriveMixResubmitsOnlyFinishedJobs(t *testing.T) {
	svc, _, err := serviceSetup(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.stop()
	cold := mixJob{Opts: mixSlots[0], Kind: kindCold, From: -1}
	cold.Opts.Seed = 7
	// With two clients, the second claims the resubmit while the first
	// is still running the job it repeats.
	stream := []mixJob{cold, {Opts: cold.Opts, Kind: kindResubmit, From: 0}}
	jobs := svc.driveMix(stream, 0)
	if len(jobs) != len(stream) {
		t.Fatalf("ran %d of %d requests", len(jobs), len(stream))
	}
	for i, j := range jobs {
		if j.err != nil {
			t.Fatalf("request %d: %v", i, j.err)
		}
	}
	if !jobs[1].cached || jobs[1].view.ID != jobs[0].view.ID {
		t.Errorf("resubmit got job %s (cached %v), want a dedup hit on %s", jobs[1].view.ID, jobs[1].cached, jobs[0].view.ID)
	}
}
