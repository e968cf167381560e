package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"time"

	"qplacer"
	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/metrics"
	"qplacer/internal/topology"
)

// jobOutcome is what one job produced, whichever path ran it.
type jobOutcome struct {
	start time.Time
	wall  time.Duration
	plan  *qplacer.PlanResult
	batch *qplacer.BatchResult
	err   error // a pipeline error or a failed output check
}

// checkOutputs is the per-job correctness check: the layout must carry the
// verifier's report with zero error-severity violations, and the suite's
// mean fidelity must be a probability. A fidelity of exactly 0 is a valid,
// if poor, outcome (the crosstalk model saturates on hotspots); the
// workload's fidelity_mean must still be above 0 (see measured.report).
func checkOutputs(valid *qplacer.ValidationReport, fidelity float64) error {
	if valid == nil {
		return errors.New("plan carries no validation report")
	}
	if valid.Errors > 0 {
		return fmt.Errorf("plan has %d error-severity violations", valid.Errors)
	}
	if math.IsNaN(fidelity) || fidelity < 0 || fidelity > 1 {
		return fmt.Errorf("mean fidelity %v outside [0, 1]", fidelity)
	}
	return nil
}

// engineJob runs one job the way `qplacer -bench all` does: a fresh engine,
// Plan under ValidationAnnotate, then EvaluateAll over Table I.
func engineJob(ctx context.Context, opts qplacer.Options) jobOutcome {
	start := time.Now()
	eng := qplacer.New(qplacer.WithValidation(qplacer.ValidationAnnotate))
	plan, err := eng.Plan(ctx, qplacer.WithOptions(opts))
	var batch *qplacer.BatchResult
	if err == nil {
		batch, err = eng.EvaluateAll(ctx, plan, qplacer.Benchmarks(), qplacer.DefaultMappings)
	}
	out := jobOutcome{start: start, wall: time.Since(start), plan: plan, batch: batch, err: err}
	if err == nil {
		out.err = checkOutputs(plan.Validation, batch.MeanFidelity)
	}
	return out
}

// layerSample is one traced call's CPU time and allocation; its wall time
// is the call's span.
type layerSample struct {
	cpu   time.Duration
	alloc uint64
}

// stagedJob is a job run through the staged pipeline, with its per-layer
// costs and counts.
type stagedJob struct {
	jobOutcome
	layers       map[string]layerSample
	pairs        int
	displacement float64
}

// Layer span names of the staged pipeline, after the modules they call.
const (
	layerStage    = "stage"
	layerPlace    = "place"
	layerLegal    = "legal"
	layerDetail   = "detail"
	layerMetrics  = "metrics"
	layerValidate = "validate"
	layerEvaluate = "evaluate"
)

// runStaged runs one job layer by layer through the same public functions
// Engine.Plan calls, recording one span per call under a root span for the
// job. The stage is built fresh, as a fresh engine would.
func runStaged(ctx context.Context, opts qplacer.Options, tr *tracer, job int) stagedJob {
	out := stagedJob{layers: map[string]layerSample{}}
	root := tr.begin(job, -1, "job")
	call := func(name string, f func() error) error {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		start := time.Now()
		err := f()
		end := time.Now()
		cpu1 := cpuTime()
		runtime.ReadMemStats(&m1)
		tr.record(job, root, name, start, end)
		out.layers[name] = layerSample{cpu: cpu1 - cpu0, alloc: m1.TotalAlloc - m0.TotalAlloc}
		return err
	}
	start := time.Now()
	out.err = stagedPipeline(ctx, opts, call, &out)
	tr.finish(root)
	out.wall = time.Since(start)
	if out.err == nil {
		out.err = checkOutputs(out.plan.Validation, out.batch.MeanFidelity)
	}
	return out
}

func stagedPipeline(ctx context.Context, opts qplacer.Options, call func(string, func() error) error, out *stagedJob) error {
	norm, err := opts.Normalized()
	if err != nil {
		return err
	}
	if norm.Scheme == qplacer.SchemeHuman {
		return errors.New("staged pipeline covers the placer backends, not the human scheme")
	}
	var (
		dev *topology.Device
		nl  *component.Netlist
		cm  *frequency.CollisionMap
	)
	err = call(layerStage, func() error {
		var err error
		if dev, err = topology.ByName(norm.Topology); err != nil {
			return err
		}
		assign := frequency.Assign(dev, norm.DeltaC)
		ccfg := component.DefaultConfig()
		ccfg.SegmentSize = norm.LB
		if nl, err = component.Build(dev, assign.QubitFreq, assign.ResFreq, ccfg); err != nil {
			return err
		}
		cm = frequency.BuildCollisionMap(nl, norm.DeltaC)
		nl = nl.Clone() // the engine places a clone of its cached template
		return nil
	})
	if err != nil {
		return err
	}
	out.pairs = len(cm.Pairs)

	plan := &qplacer.PlanResult{Options: norm, Device: dev, Netlist: nl, Collision: cm, NumCells: nl.NumCells()}
	st := &qplacer.StageState{
		Options:             norm,
		Device:              dev,
		Netlist:             nl,
		Collision:           cm,
		Parallelism:         runtime.GOMAXPROCS(0),
		AdaptiveGranularity: true,
		DeltaEval:           true,
	}
	observer := qplacer.ObserverFunc(func(qplacer.Progress) {})

	placer, err := qplacer.PlacerByName(norm.Placer)
	if err != nil {
		return err
	}
	var pres *qplacer.PlaceOutcome
	if err := call(layerPlace, func() (err error) {
		pres, err = placer.Place(ctx, st, observer)
		return err
	}); err != nil {
		return err
	}
	plan.Region = pres.Region
	plan.PlaceIterations = pres.Iterations
	plan.PlaceRuntime = pres.Runtime
	plan.AvgIterMS = pres.AvgIterMS
	plan.PlaceOverflow = pres.Overflow

	if !norm.SkipLegalize {
		legalizer, err := qplacer.LegalizerByName(norm.Legalizer)
		if err != nil {
			return err
		}
		var lres *qplacer.LegalizeOutcome
		if err := call(layerLegal, func() (err error) {
			lres, err = legalizer.Legalize(ctx, st, pres.Region, observer)
			return err
		}); err != nil {
			return err
		}
		plan.Integrated = lres.IntegratedAll
		out.displacement = lres.QubitDisplacement + lres.SegmentDisplacement

		if norm.DetailedPlacer != qplacer.DefaultDetailedPlacerName {
			detailed, err := qplacer.DetailedPlacerByName(norm.DetailedPlacer)
			if err != nil {
				return err
			}
			var dres *qplacer.DetailOutcome
			if err := call(layerDetail, func() (err error) {
				dres, err = detailed.Refine(ctx, st, pres.Region, observer)
				return err
			}); err != nil {
				return err
			}
			plan.DetailMoved = dres.Moved
			plan.DetailHPWLBefore = dres.HPWLBefore
			plan.DetailHPWLAfter = dres.HPWLAfter
		}
	}

	_ = call(layerMetrics, func() error {
		plan.Metrics = metrics.Measure(nl, norm.DeltaC)
		return nil
	})
	if err := call(layerValidate, func() (err error) {
		plan.Validation, err = qplacer.Validate(plan)
		return err
	}); err != nil {
		return err
	}
	out.plan = plan

	eng := qplacer.New()
	return call(layerEvaluate, func() (err error) {
		out.batch, err = eng.EvaluateAll(ctx, plan, qplacer.Benchmarks(), qplacer.DefaultMappings)
		return err
	})
}

// positionsHash fingerprints a layout: every instance's id and the exact
// bits of its position.
func positionsHash(nl *component.Netlist) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, in := range nl.Instances {
		putUint64(buf[0:], uint64(in.ID))
		putUint64(buf[8:], math.Float64bits(in.Pos.X))
		putUint64(buf[16:], math.Float64bits(in.Pos.Y))
		h.Write(buf[:])
	}
	return h.Sum64()
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// checkParity requires the staged pipeline to reproduce Engine.Plan exactly:
// the same positions hash and the same metrics report for the same options.
// Per-layer numbers from a pipeline that diverged would describe some other
// pipeline, so they are not reported.
func checkParity(engine, staged *qplacer.PlanResult) error {
	if engine == nil || staged == nil {
		return errors.New("parity: a plan is missing")
	}
	if he, hs := positionsHash(engine.Netlist), positionsHash(staged.Netlist); he != hs {
		return fmt.Errorf("parity: positions hash %016x from Engine.Plan, %016x from the staged pipeline", he, hs)
	}
	if !reflect.DeepEqual(engine.Metrics, staged.Metrics) {
		return fmt.Errorf("parity: metrics report differs: Engine.Plan %+v, staged pipeline %+v", *engine.Metrics, *staged.Metrics)
	}
	return nil
}
