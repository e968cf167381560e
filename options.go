package qplacer

import (
	"fmt"
	"math"
	"runtime"

	"qplacer/internal/physics"
)

// Scheme selects the placement strategy of §V-B.
type Scheme int

const (
	// SchemeQplacer is the frequency-aware electrostatic engine.
	SchemeQplacer Scheme = iota
	// SchemeClassic is the same engine without the frequency force.
	SchemeClassic
	// SchemeHuman is the manually optimized IBM-style grid baseline.
	SchemeHuman
)

// String returns the scheme's wire name ("qplacer", "classic", "human"),
// the same form ParseScheme accepts and JSON marshalling emits.
func (s Scheme) String() string {
	switch s {
	case SchemeQplacer:
		return "qplacer"
	case SchemeClassic:
		return "classic"
	case SchemeHuman:
		return "human"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ParseScheme converts a scheme name ("qplacer", "classic", "human") to its
// Scheme value. Unknown names wrap ErrUnknownScheme.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "qplacer":
		return SchemeQplacer, nil
	case "classic":
		return SchemeClassic, nil
	case "human":
		return SchemeHuman, nil
	}
	return 0, fmt.Errorf("%w %q", ErrUnknownScheme, name)
}

// DefaultMappings is the paper's subset-mapping count per evaluation (§VI-A).
const DefaultMappings = 50

// Options configures a placement run. Zero values select the paper's
// defaults (§V-C). Options is comparable: the normalized value doubles as
// the Engine's stage- and plan-cache key.
type Options struct {
	Topology string  `json:"topology"` // any registered topology name (see RegisteredTopologies)
	Scheme   Scheme  `json:"scheme"`   // placement strategy, as its string name on the wire
	LB       float64 `json:"lb"`       // resonator segment size l_b in mm (0 = default 0.3; negative is invalid)
	DeltaC   float64 `json:"delta_c"`  // detuning threshold Δc in GHz (0 = default 0.1; negative is invalid)
	Seed     int64   `json:"seed"`     // engine seed (default 1)

	// MaxIters overrides the global-placement iteration cap (0 = default).
	// The gradient placer reads it as Nesterov iterations; the annealing
	// placer as sweeps.
	MaxIters int `json:"max_iters,omitempty"`
	// SkipLegalize leaves the global placement unlegalized (ablations).
	SkipLegalize bool `json:"skip_legalize,omitempty"`

	// Placer selects the global-placement backend by registered name
	// ("" resolves to DefaultPlacerName; see Placers).
	Placer string `json:"placer,omitempty"`
	// Legalizer selects the legalization backend by registered name
	// ("" resolves to DefaultLegalizerName; see Legalizers).
	Legalizer string `json:"legalizer,omitempty"`
	// DetailedPlacer selects the post-legalization refinement backend by
	// registered name ("" resolves to DefaultDetailedPlacerName, the identity
	// stage; see DetailedPlacers).
	DetailedPlacer string `json:"detailed_placer,omitempty"`
}

// Normalized returns the canonical form of the options — defaults filled in,
// scheme validated — which the Engine uses as its plan-cache key. Services
// deduplicating equivalent requests should key on this value.
func (o Options) Normalized() (Options, error) {
	return o.normalized()
}

// normalized fills in defaults and validates the scheme, returning the
// canonical form used as cache key.
func (o Options) normalized() (Options, error) {
	// Non-finite numerics can slip past every downstream <= 0 guard (NaN
	// compares false both ways) and poison cache keys, and a negative value
	// has no physical meaning (each stage would read it differently), so
	// both are rejected here with the typed sentinel. Zero means default.
	if math.IsNaN(o.LB) || math.IsInf(o.LB, 0) || o.LB < 0 {
		return o, fmt.Errorf("%w: lb %v is not finite and non-negative", ErrInvalidOptions, o.LB)
	}
	if math.IsNaN(o.DeltaC) || math.IsInf(o.DeltaC, 0) || o.DeltaC < 0 {
		return o, fmt.Errorf("%w: delta_c %v is not finite and non-negative", ErrInvalidOptions, o.DeltaC)
	}
	if o.Topology == "" {
		o.Topology = "grid"
	}
	if o.LB == 0 {
		o.LB = 0.3
	}
	if o.DeltaC == 0 {
		o.DeltaC = physics.DetuneThresholdGHz
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxIters < 0 {
		o.MaxIters = 0
	}
	switch o.Scheme {
	case SchemeQplacer, SchemeClassic, SchemeHuman:
	default:
		return o, fmt.Errorf("%w %v", ErrUnknownScheme, o.Scheme)
	}
	if o.Placer == "" {
		o.Placer = DefaultPlacerName
	}
	if _, err := PlacerByName(o.Placer); err != nil {
		return o, err
	}
	if o.Legalizer == "" {
		o.Legalizer = DefaultLegalizerName
	}
	if _, err := LegalizerByName(o.Legalizer); err != nil {
		return o, err
	}
	if o.DetailedPlacer == "" {
		o.DetailedPlacer = DefaultDetailedPlacerName
	}
	if _, err := DetailedPlacerByName(o.DetailedPlacer); err != nil {
		return o, err
	}
	return o, nil
}

// settings is the merged engine + per-call configuration that functional
// options operate on. Knobs that change results live in Options (the cache
// key); knobs that only change how results are computed — worker counts,
// observers, validation — live beside it.
type settings struct {
	opts        Options
	workers     int
	parallelism int
	adaptive    bool
	deltaEval   bool
	observer    Observer
	validation  ValidationMode
	tracing     bool
}

func defaultSettings() settings {
	return settings{
		workers:     runtime.GOMAXPROCS(0),
		parallelism: runtime.GOMAXPROCS(0),
		adaptive:    true,
		deltaEval:   true,
		tracing:     true,
	}
}

// Option configures an Engine at construction (New) or one call (Plan).
// Per-call options start from the engine's settings and override them for
// that call only.
type Option func(*settings)

// WithTopology selects the device topology by registered name.
func WithTopology(name string) Option {
	return func(s *settings) { s.opts.Topology = name }
}

// WithScheme selects the placement strategy.
func WithScheme(sch Scheme) Option {
	return func(s *settings) { s.opts.Scheme = sch }
}

// WithLB sets the resonator segment size l_b in mm.
func WithLB(lb float64) Option {
	return func(s *settings) { s.opts.LB = lb }
}

// WithDeltaC sets the detuning threshold Δc in GHz.
func WithDeltaC(deltaC float64) Option {
	return func(s *settings) { s.opts.DeltaC = deltaC }
}

// WithSeed sets the deterministic engine seed.
func WithSeed(seed int64) Option {
	return func(s *settings) { s.opts.Seed = seed }
}

// WithMaxIters caps the global-placement iterations (0 restores the default).
func WithMaxIters(n int) Option {
	return func(s *settings) { s.opts.MaxIters = n }
}

// WithSkipLegalize leaves the global placement unlegalized (ablations).
func WithSkipLegalize(skip bool) Option {
	return func(s *settings) { s.opts.SkipLegalize = skip }
}

// WithPlacer selects the global-placement backend by registered name
// (see Placers; "" restores the default).
func WithPlacer(name string) Option {
	return func(s *settings) { s.opts.Placer = name }
}

// WithLegalizer selects the legalization backend by registered name
// (see Legalizers; "" restores the default).
func WithLegalizer(name string) Option {
	return func(s *settings) { s.opts.Legalizer = name }
}

// WithDetailedPlacer selects the detailed-placement backend by registered
// name (see DetailedPlacers; "" restores the default identity stage).
func WithDetailedPlacer(name string) Option {
	return func(s *settings) { s.opts.DetailedPlacer = name }
}

// WithObserver streams Progress events from the run's backends to obs. As an
// engine option it observes every plan; as a per-call option it observes that
// call only. Warm plan-cache hits complete without events (no stage runs).
// nil removes the observer.
func WithObserver(obs Observer) Option {
	return func(s *settings) { s.observer = obs }
}

// WithValidation runs the independent verifier (see Validate) after every
// plan. ValidationAnnotate attaches the report to PlanResult.Validation;
// ValidationStrict additionally fails Plan with ErrInvalidPlacement when the
// report carries error-severity violations. Warm cache hits are verified
// (once) too, so a corrupted cache entry cannot slip through. As an engine
// option it applies to every plan; as a per-call option to that call only.
func WithValidation(mode ValidationMode) Option {
	return func(s *settings) { s.validation = mode }
}

// WithTracing toggles the span tracer (default on). Traced plans carry a
// per-stage timing breakdown in PlanResult.Timings; untraced plans run the
// exact same code with a nil span, leave Timings nil, and pay nothing
// beyond a pointer test per instrumented site. Like parallelism, tracing
// never changes placement results and is not part of the cache key — but
// note the cache stores whatever the first (cold) run produced, so a warm
// hit may carry timings even when the hitting call disabled tracing.
func WithTracing(enabled bool) Option {
	return func(s *settings) { s.tracing = enabled }
}

// WithOptions replaces the whole Options struct at once — the migration
// bridge from the legacy Plan(Options) call style.
func WithOptions(o Options) Option {
	return func(s *settings) { s.opts = o }
}

// WithWorkers bounds the EvaluateAll worker pool (default GOMAXPROCS). It
// controls how many benchmarks are evaluated concurrently; for the worker
// pool inside a single placement, see WithParallelism.
func WithWorkers(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithParallelism bounds the worker pool a single placement's hot path fans
// out on — the nesterov placer's per-iteration gradient components
// (wirelength, density bins and the spectral Poisson solve, frequency and
// chain pair repulsion). The legalizers and detailed placers run serial.
// The default is GOMAXPROCS; 1 restores the serial path; n <= 0 resets to
// the default. A request above GOMAXPROCS
// is clamped at plan time — oversubscribing the scheduler only adds context
// switches to a CPU-bound hot path — and the clamp is noted on the plan's
// root timing span.
//
// Parallelism never changes results: work is statically partitioned and
// accumulated owner-computes, so placements are bit-identical at every
// worker count. It is therefore deliberately NOT part of Options and never
// enters the plan-cache key — plans computed at different parallelism are
// interchangeable cache hits. As an engine option it applies to every plan;
// as a per-call option to that call only.
//
// Each parallel stage additionally falls back to its serial kernel when the
// stage's problem size is below an auto-calibrated cutoff — fan-out dispatch
// costs more than it saves on small problems. See WithAdaptiveGranularity.
func WithParallelism(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.parallelism = n
		} else {
			s.parallelism = runtime.GOMAXPROCS(0)
		}
	}
}

// WithAdaptiveGranularity toggles the per-stage serial fallback (default
// on): each parallelizable stage compares its problem size against a cutoff
// calibrated once per process from the measured pool dispatch overhead, and
// runs its serial kernel below it. Disabling forces every stage to fan out
// whenever parallelism > 1 — useful for scheduler experiments, never for
// results: gating only selects between bit-identical implementations, so
// like parallelism it is not part of the plan-cache key.
func WithAdaptiveGranularity(enabled bool) Option {
	return func(s *settings) { s.adaptive = enabled }
}

// WithDeltaEval toggles incremental gradient evaluation across placement
// iterations (default on): verbatim re-evaluations replay from a memo keyed
// on the exact position bits, and the pair-repulsion families keep Verlet
// active lists refreshed before any excluded pair could contribute. Both
// mechanisms are exact by construction — placements are bit-identical with
// the toggle on or off — so it too stays out of the plan-cache key.
func WithDeltaEval(enabled bool) Option {
	return func(s *settings) { s.deltaEval = enabled }
}
