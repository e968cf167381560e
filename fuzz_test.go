package qplacer

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// validNumeric is the contract Normalized enforces on lb and delta_c:
// finite and non-negative (zero selects the default).
func validNumeric(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// TestNormalizedRejectsNonFinite pins the deterministic contract the fuzz
// target relies on: NaN/Inf numerics fail normalization with the typed
// sentinel instead of slipping past the <= 0 guards into cache keys, and so
// do negative ones, which the stages would otherwise read differently.
func TestNormalizedRejectsNonFinite(t *testing.T) {
	for _, o := range []Options{
		{LB: math.NaN()},
		{LB: math.Inf(1)},
		{DeltaC: math.NaN()},
		{DeltaC: math.Inf(-1)},
		{LB: -0.3},
		{DeltaC: -0.05},
	} {
		if _, err := o.Normalized(); !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("Normalized(%+v) err = %v, want ErrInvalidOptions", o, err)
		}
	}
}

// FuzzParseScheme checks the parse/format round-trip contract of the scheme
// wire form: every name ParseScheme accepts formats back to itself (String
// and JSON agree), and every rejection carries the typed sentinel. The seed
// corpus under testdata/fuzz/FuzzParseScheme runs as part of the normal test
// suite; `go test -fuzz=FuzzParseScheme .` explores further.
func FuzzParseScheme(f *testing.F) {
	for _, s := range []string{"qplacer", "classic", "human", "", "QPLACER", "human ", "scheme(3)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		sch, err := ParseScheme(name)
		if err != nil {
			if !errors.Is(err, ErrUnknownScheme) {
				t.Fatalf("ParseScheme(%q) error %v is not ErrUnknownScheme", name, err)
			}
			return
		}
		if got := sch.String(); got != name {
			t.Fatalf("round-trip broke: ParseScheme(%q).String() = %q", name, got)
		}
		data, err := json.Marshal(sch)
		if err != nil {
			t.Fatalf("accepted scheme %v fails to marshal: %v", sch, err)
		}
		var back Scheme
		if err := json.Unmarshal(data, &back); err != nil || back != sch {
			t.Fatalf("JSON round-trip %s -> %v, %v", data, back, err)
		}
	})
}

// FuzzValidateOptions hammers Options.Normalized with arbitrary field
// values: it must never panic, always classify unknown names with the right
// sentinel, and be idempotent on success — the contract the server's request
// validation and the engine's cache keys both rely on.
func FuzzValidateOptions(f *testing.F) {
	f.Add("grid", "nesterov", "shelf", "", 0, int64(1), 0.3, 0.1, 10)
	f.Add("", "", "", "", 0, int64(0), 0.0, 0.0, 0)
	f.Add("eagle", "anneal", "greedy", "none", 1, int64(99), 0.2, 0.08, -5)
	f.Add("grid", "warp-drive", "shelf", "", 0, int64(1), 0.3, 0.1, 0)
	f.Add("grid", "nesterov", "anneal", "", 2, int64(1), 0.3, 0.1, 0)
	f.Add("grid", "nesterov", "shelf", "mcmf", 99, int64(1), -0.3, -0.1, 0)
	f.Add("grid", "nesterov", "shelf", "swap", 0, int64(1), math.NaN(), 0.1, 0)
	f.Add("grid", "nesterov", "shelf", "warp-drive", 0, int64(1), 0.3, math.Inf(1), 0)
	f.Add("grid", "nesterov", "shelf", "nesterov", 0, int64(1), 0.3, 0.1, 0)
	f.Fuzz(func(t *testing.T, topo, placer, legalizer, detailed string, scheme int, seed int64, lb, deltaC float64, maxIters int) {
		o := Options{
			Topology:       topo,
			Scheme:         Scheme(scheme),
			LB:             lb,
			DeltaC:         deltaC,
			Seed:           seed,
			MaxIters:       maxIters,
			Placer:         placer,
			Legalizer:      legalizer,
			DetailedPlacer: detailed,
		}
		norm, err := o.Normalized() // must never panic
		// Numerics are checked first: invalid exactly when lb or delta_c is
		// non-finite or negative, whatever else the options say.
		if !validNumeric(lb) || !validNumeric(deltaC) {
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("lb %v delta_c %v: err = %v, want ErrInvalidOptions", lb, deltaC, err)
			}
			return
		}
		if err != nil {
			// Failures must classify with exactly one of the typed
			// sentinels, matching the field that actually failed.
			switch {
			case errors.Is(err, ErrInvalidOptions):
				t.Fatalf("valid lb %v delta_c %v rejected as invalid: %v", lb, deltaC, err)
			case errors.Is(err, ErrUnknownScheme):
				if s := Scheme(scheme); s == SchemeQplacer || s == SchemeClassic || s == SchemeHuman {
					t.Fatalf("valid scheme %v rejected: %v", s, err)
				}
			case errors.Is(err, ErrUnknownPlacer):
				if _, lookupErr := PlacerByName(placer); lookupErr == nil {
					t.Fatalf("registered placer %q rejected: %v", placer, err)
				}
			case errors.Is(err, ErrUnknownLegalizer):
				if _, lookupErr := LegalizerByName(legalizer); lookupErr == nil {
					t.Fatalf("registered legalizer %q rejected: %v", legalizer, err)
				}
			case errors.Is(err, ErrUnknownDetailedPlacer):
				if _, lookupErr := DetailedPlacerByName(detailed); lookupErr == nil {
					t.Fatalf("registered detailed placer %q rejected: %v", detailed, err)
				}
			default:
				t.Fatalf("Normalized() error %v carries no known sentinel", err)
			}
			return
		}
		// Success invariants: defaults filled, backends resolvable, and a
		// second normalization is a fixed point (cache-key stability).
		if norm.Topology == "" || norm.Seed == 0 {
			t.Fatalf("defaults not filled: %+v", norm)
		}
		if _, err := PlacerByName(norm.Placer); err != nil {
			t.Fatalf("normalized placer %q not resolvable: %v", norm.Placer, err)
		}
		if _, err := LegalizerByName(norm.Legalizer); err != nil {
			t.Fatalf("normalized legalizer %q not resolvable: %v", norm.Legalizer, err)
		}
		if _, err := DetailedPlacerByName(norm.DetailedPlacer); err != nil {
			t.Fatalf("normalized detailed placer %q not resolvable: %v", norm.DetailedPlacer, err)
		}
		again, err := norm.Normalized()
		if err != nil {
			t.Fatalf("re-normalizing a normalized value failed: %v", err)
		}
		if again != norm {
			t.Fatalf("Normalized not idempotent: %+v -> %+v", norm, again)
		}
	})
}
