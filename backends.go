package qplacer

import (
	"context"

	"qplacer/internal/anneal"
	"qplacer/internal/detail"
	"qplacer/internal/geom"
	"qplacer/internal/legal"
	"qplacer/internal/obs"
	"qplacer/internal/parallel"
	"qplacer/internal/place"
)

// This file adapts the internal pipeline implementations to the public
// Placer/Legalizer/DetailedPlacer interfaces and registers them as the
// built-in backends: the Nesterov electrostatic placer ("nesterov", the
// default), the simulated-annealing placer ("anneal"), the integration-aware
// legalizer ("shelf", the default), the greedy row-scan legalizer
// ("greedy"), and the detailed placers — the identity stage ("none", the
// default), the min-cost-flow reassignment pass ("mcmf"), and the
// frequency-aware local-swap hill climb ("swap").

// nesterovPlacer is the frequency-aware electrostatic engine of §IV-C,
// refactored behind the Placer interface.
type nesterovPlacer struct{}

func (nesterovPlacer) Name() string { return DefaultPlacerName }

func (nesterovPlacer) Place(ctx context.Context, st *StageState, observer Observer) (*PlaceOutcome, error) {
	cfg := place.DefaultConfig()
	cfg.Span = obs.SpanFrom(ctx)
	cfg.Seed = st.Options.Seed
	cfg.Workers = st.Parallelism
	cfg.DeltaEval = st.DeltaEval
	if !st.AdaptiveGranularity {
		// The zero cutoffs disable gating: every stage fans out whenever a
		// pool exists. nil would mean auto-calibrate.
		cfg.Cutoffs = &parallel.Cutoffs{}
	}
	if st.Options.MaxIters > 0 {
		cfg.MaxIters = st.Options.MaxIters
	}
	if st.Options.Scheme == SchemeClassic {
		cfg.Mode = place.ModeClassic
	}
	cfg.Progress = func(iter int, overflow float64) {
		observer.OnProgress(Progress{
			Stage: StagePlace, Backend: DefaultPlacerName,
			Iteration: iter, Objective: overflow,
		})
	}
	res, err := place.PlaceCtx(ctx, st.Netlist, st.Collision, cfg)
	if err != nil {
		return nil, err
	}
	return &PlaceOutcome{
		Region:     res.Region,
		Iterations: res.Iterations,
		Runtime:    res.Runtime,
		AvgIterMS:  res.AvgIterMS,
		Overflow:   res.Overflow,
	}, nil
}

// annealPlacer is the seeded simulated-annealing backend of internal/anneal.
// Its Metropolis chain is inherently sequential (every move's acceptance
// depends on the state left by the previous one), so it ignores
// StageState.Parallelism — which is legal: parallelism never changes
// results, and for this backend it simply does nothing.
type annealPlacer struct{}

func (annealPlacer) Name() string { return "anneal" }

func (annealPlacer) Place(ctx context.Context, st *StageState, observer Observer) (*PlaceOutcome, error) {
	cfg := anneal.DefaultConfig()
	cfg.Span = obs.SpanFrom(ctx)
	cfg.Seed = st.Options.Seed
	if st.Options.MaxIters > 0 {
		cfg.Sweeps = st.Options.MaxIters
	}
	if st.Options.Scheme == SchemeClassic {
		cfg.FreqWeight = 0 // the crosstalk-oblivious baseline, like ModeClassic
	}
	cfg.Progress = func(sweep int, cost float64) {
		observer.OnProgress(Progress{
			Stage: StagePlace, Backend: "anneal",
			Iteration: sweep, Objective: cost,
		})
	}
	res, err := anneal.Place(ctx, st.Netlist, st.Collision, cfg)
	if err != nil {
		return nil, err
	}
	return &PlaceOutcome{
		Region:     res.Region,
		Iterations: res.Sweeps,
		Runtime:    res.Runtime,
		AvgIterMS:  res.AvgIterMS,
	}, nil
}

// legalProgress adapts the legal package's step/total hook to Progress
// events (completed steps as the iteration, the total as the objective so
// observers can show a fraction).
func legalProgress(observer Observer, backend string) func(step, total int) {
	return func(step, total int) {
		observer.OnProgress(Progress{
			Stage: StageLegalize, Backend: backend,
			Iteration: step, Objective: float64(total),
		})
	}
}

// shelfLegalizer is the integration-aware legalizer of §IV-C2 (greedy spiral
// + min-cost-flow + Tetris + integration repair) behind the Legalizer
// interface. Each greedy decision depends on everything placed before it,
// so it runs serial and ignores StageState.Parallelism.
type shelfLegalizer struct{}

func (shelfLegalizer) Name() string { return DefaultLegalizerName }

func (shelfLegalizer) Legalize(ctx context.Context, st *StageState, region geom.Rect, observer Observer) (*LegalizeOutcome, error) {
	cfg := legal.DefaultConfig()
	cfg.Span = obs.SpanFrom(ctx)
	// The Classic baseline gets the classical (frequency-oblivious)
	// legalizer, exactly as it would from its own engine.
	cfg.FrequencyAware = st.Options.Scheme == SchemeQplacer
	cfg.Progress = legalProgress(observer, DefaultLegalizerName)
	res, err := legal.LegalizeCtx(ctx, st.Netlist, region, st.Collision, cfg)
	if err != nil {
		return nil, err
	}
	return &LegalizeOutcome{
		IntegratedAll:       res.IntegratedAll,
		QubitDisplacement:   res.QubitDisplacement,
		SegmentDisplacement: res.SegmentDisplacement,
	}, nil
}

// greedyLegalizer is the greedy row-scan variant of internal/legal. Its shelf
// sweep is sequential, so it ignores StageState.Parallelism.
type greedyLegalizer struct{}

func (greedyLegalizer) Name() string { return "greedy" }

func (greedyLegalizer) Legalize(ctx context.Context, st *StageState, region geom.Rect, observer Observer) (*LegalizeOutcome, error) {
	cfg := legal.DefaultConfig()
	cfg.Span = obs.SpanFrom(ctx)
	cfg.FrequencyAware = st.Options.Scheme == SchemeQplacer
	cfg.Progress = legalProgress(observer, "greedy")
	res, err := legal.RowScanCtx(ctx, st.Netlist, region, st.Collision, cfg)
	if err != nil {
		return nil, err
	}
	return &LegalizeOutcome{
		IntegratedAll:       res.IntegratedAll,
		QubitDisplacement:   res.QubitDisplacement,
		SegmentDisplacement: res.SegmentDisplacement,
	}, nil
}

// noneDetailed is the identity detailed placer: it refines nothing, so the
// pipeline behaves exactly as it did before the stage existed. The engine
// fast-paths it without invoking Refine, keeping the default path free of
// even a span node; the implementation here serves direct callers.
type noneDetailed struct{}

func (noneDetailed) Name() string { return DefaultDetailedPlacerName }

func (noneDetailed) Refine(_ context.Context, st *StageState, _ geom.Rect, _ Observer) (*DetailOutcome, error) {
	w := place.HPWL(st.Netlist)
	return &DetailOutcome{HPWLBefore: w, HPWLAfter: w}, nil
}

// detailConfig assembles the shared detail.Config from the stage state: the
// span, the collision map, the seed and a progress hook. Both detailed
// placers run serial.
func detailConfig(ctx context.Context, st *StageState, backend string, observer Observer) detail.Config {
	cfg := detail.Config{
		Span:      obs.SpanFrom(ctx),
		Collision: st.Collision,
		Seed:      st.Options.Seed,
	}
	cfg.Progress = func(step int, hpwl float64) {
		observer.OnProgress(Progress{
			Stage: StageDetail, Backend: backend,
			Iteration: step, Objective: hpwl,
		})
	}
	return cfg
}

// mcmfDetailed is the independent-set + min-cost-flow reassignment pass of
// internal/detail: deterministic and serial, so it ignores
// StageState.Parallelism.
type mcmfDetailed struct{}

func (mcmfDetailed) Name() string { return "mcmf" }

func (mcmfDetailed) Refine(ctx context.Context, st *StageState, _ geom.Rect, observer Observer) (*DetailOutcome, error) {
	res, err := detail.MCMF(ctx, st.Netlist, detailConfig(ctx, st, "mcmf", observer))
	if err != nil {
		return nil, err
	}
	return &DetailOutcome{Moved: res.Moved, HPWLBefore: res.HPWLBefore, HPWLAfter: res.HPWLAfter}, nil
}

// swapDetailed is the seeded frequency-aware local-swap hill climb of
// internal/detail. Inherently sequential; it ignores StageState.Parallelism,
// which is legal — parallelism never changes results.
type swapDetailed struct{}

func (swapDetailed) Name() string { return "swap" }

func (swapDetailed) Refine(ctx context.Context, st *StageState, _ geom.Rect, observer Observer) (*DetailOutcome, error) {
	res, err := detail.Swap(ctx, st.Netlist, detailConfig(ctx, st, "swap", observer))
	if err != nil {
		return nil, err
	}
	return &DetailOutcome{Moved: res.Moved, HPWLBefore: res.HPWLBefore, HPWLAfter: res.HPWLAfter}, nil
}

func init() {
	for _, err := range []error{
		RegisterPlacer(nesterovPlacer{}),
		RegisterPlacer(annealPlacer{}),
		RegisterLegalizer(shelfLegalizer{}),
		RegisterLegalizer(greedyLegalizer{}),
		RegisterDetailedPlacer(noneDetailed{}),
		RegisterDetailedPlacer(mcmfDetailed{}),
		RegisterDetailedPlacer(swapDetailed{}),
	} {
		if err != nil {
			panic(err)
		}
	}
}
