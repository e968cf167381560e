package validate

import (
	"reflect"
	"testing"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/physics"
	"qplacer/internal/topology"
)

// TestCollisionMapMatchesOracle re-derives the near-resonant pairs with this
// package's own brute force (same band, not one resonator, resonant within
// Δc) and requires the stage pair index to match it exactly, order included:
// validate is the oracle every consumer of the index is checked against.
func TestCollisionMapMatchesOracle(t *testing.T) {
	for _, name := range []string{"grid", "falcon", "eagle"} {
		dev, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		deltaC := physics.DetuneThresholdGHz
		a := frequency.Assign(dev, deltaC)
		nl, err := component.Build(dev, a.QubitFreq, a.ResFreq, component.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var want [][2]int
		byInst := make([][]int, len(nl.Instances))
		for i, x := range nl.Instances {
			for j := i + 1; j < len(nl.Instances); j++ {
				y := nl.Instances[j]
				if x.Kind != y.Kind || !resonant(x.FreqGHz, y.FreqGHz, deltaC) {
					continue
				}
				if x.Kind == component.KindSegment && x.Resonator == y.Resonator {
					continue
				}
				want = append(want, [2]int{i, j})
				byInst[i] = append(byInst[i], j)
				byInst[j] = append(byInst[j], i)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: oracle found no pairs; the comparison would be vacuous", name)
		}
		cm := frequency.BuildCollisionMap(nl, deltaC)
		if !reflect.DeepEqual(cm.Pairs, want) {
			t.Fatalf("%s: index has %d pairs, oracle %d", name, len(cm.Pairs), len(want))
		}
		if !reflect.DeepEqual(cm.ByInst, byInst) {
			t.Fatalf("%s: per-instance partner lists differ from the oracle's", name)
		}
	}
}
