// Package legal implements the integration-aware legalization of §IV-C2
// (Algorithm 1): a greedy spiral search places qubits on overlap-free
// positions, a min-cost-flow pass minimizes total qubit displacement
// (Tang et al. [88]), a Tetris-style sweep legalizes resonator segments
// (Chen et al. [17]), and a final integration stage verifies that every
// resonator's segments form one contiguous cluster, pulling scattered
// segments back to their resonator's largest cluster — swapping with
// foreign segments when no free space remains.
package legal

import (
	"context"
	"fmt"
	"math"
	"sort"

	"qplacer/internal/component"
	"qplacer/internal/frequency"
	"qplacer/internal/geom"
	"qplacer/internal/mcmf"
	"qplacer/internal/obs"
)

// Config tunes the legalizer.
type Config struct {
	// Pitch is the spiral/Tetris search grid pitch (mm).
	Pitch float64
	// MaxRings bounds the spiral search radius in pitch units.
	MaxRings int
	// ClusterGap is the maximum edge-to-edge gap at which two segments of
	// one resonator still count as contiguous (integration criterion).
	ClusterGap float64
	// MaxIntegrationPasses bounds the pull-in repair loop.
	MaxIntegrationPasses int
	// CompactionPasses bounds the inward-compaction sweeps that shrink the
	// enclosing rectangle after integration (0 disables).
	CompactionPasses int
	// FrequencyAware enables the isolation guards. Qplacer's legalizer is
	// frequency-aware (the integration legalizer of §IV-C2); the Classic
	// baseline uses the same machinery with the guards off, like the
	// classical engine's own legalizer.
	FrequencyAware bool

	// Progress, when non-nil, is called as legalization advances: LegalizeCtx
	// reports completed passes (step out of total), RowScanCtx completed
	// placement units. It must be fast and non-blocking.
	Progress func(step, total int)

	// Span, when non-nil, receives the per-pass timing breakdown:
	// LegalizeCtx records one child per Algorithm-1 pass, RowScanCtx
	// records the shelf scan. Both add one note with the run's guard
	// fallbacks and spot failures.
	Span *obs.Span
}

// DefaultConfig returns production settings.
func DefaultConfig() Config {
	return Config{
		Pitch:                0.1,
		MaxRings:             120,
		ClusterGap:           0.35,
		MaxIntegrationPasses: 6,
		CompactionPasses:     3,
		FrequencyAware:       true,
	}
}

// Result reports legalization statistics.
type Result struct {
	QubitDisplacement   float64 // total qubit movement (mm)
	SegmentDisplacement float64 // total segment movement (mm)
	IntegratedAll       bool    // every resonator contiguous at the end
	BrokenResonators    []int   // resonators still fragmented
	GuardFallbacks      int     // placements that gave up frequency isolation
	SpotFailures        int     // placements with no free spot at all
}

// LegalRect returns the footprint the legalizer keeps overlap-free for an
// instance: qubits claim their fully padded cell (their padding is the
// crosstalk keep-out, §IV-B1); segments claim their core plus half padding
// (shared spacing between different wire blocks).
func LegalRect(in *component.Instance) geom.Rect {
	if in.Kind == component.KindQubit {
		return in.PaddedRect()
	}
	return in.CoreRect().Inflate(in.Pad / 2)
}

// legalizer carries run state. Every pass is serial: each greedy
// decision depends on everything placed before it.
type legalizer struct {
	ctx    context.Context
	cfg    Config
	nl     *component.Netlist
	bounds geom.Rect

	// placed[id] is instance id's legal rect once isFixed[id] is set.
	placed  []geom.Rect
	isFixed []bool

	// partners[i] lists the near-resonant instances of i, ascending (the
	// stage collision map); findSpot keeps candidates clear of the placed
	// ones so legalization preserves the engine's spatial isolation.
	partners [][]int

	// spiral is findSpotIn's search order, built once per run.
	spiral []geom.Point

	// Spatial hash over placed rects for O(1) neighbourhood queries.
	cell    float64
	buckets map[[2]int][]int // bucket coord → fixed instance IDs

	stats *Result // live statistics sink
}

// partnerLists returns the stage collision map's per-instance partner
// lists; a nil map means no near-resonant pairs.
func partnerLists(cm *frequency.CollisionMap, n int) [][]int {
	if cm == nil {
		return make([][]int, n)
	}
	return cm.ByInst
}

// guardedApart reports whether centres a and b keep the guard distance
// (frequency.IsolationGuard), measured in the Chebyshev metric.
func guardedApart(a, b geom.Point, guard float64) bool {
	return math.Max(math.Abs(a.X-b.X), math.Abs(a.Y-b.Y)) >= guard
}

func (lg *legalizer) bucketRange(r geom.Rect) (x0, y0, x1, y1 int) {
	x0 = int(math.Floor(r.Lo.X / lg.cell))
	y0 = int(math.Floor(r.Lo.Y / lg.cell))
	x1 = int(math.Floor(r.Hi.X / lg.cell))
	y1 = int(math.Floor(r.Hi.Y / lg.cell))
	return
}

func (lg *legalizer) indexAdd(id int, r geom.Rect) {
	x0, y0, x1, y1 := lg.bucketRange(r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			key := [2]int{x, y}
			lg.buckets[key] = append(lg.buckets[key], id)
		}
	}
}

func (lg *legalizer) indexRemove(id int, r geom.Rect) {
	x0, y0, x1, y1 := lg.bucketRange(r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			key := [2]int{x, y}
			list := lg.buckets[key]
			for k, v := range list {
				if v == id {
					list[k] = list[len(list)-1]
					lg.buckets[key] = list[:len(list)-1]
					break
				}
			}
		}
	}
}

// LegalizeCtx snaps the globally placed netlist into an overlap-free layout.
// region is the placement region (the layout may grow slightly past it if
// space runs out); cm is the stage collision map whose pairs the isolation
// guards and the swap τ check read (nil means no near-resonant pairs). The
// instance-loop passes (greedy qubits, Tetris segments, integration,
// compaction) check ctx between instances, and the min-cost-flow refinement
// checks it before its indivisible solve; the first ctx.Err() observed is
// returned.
func LegalizeCtx(ctx context.Context, nl *component.Netlist, region geom.Rect, cm *frequency.CollisionMap, cfg Config) (*Result, error) {
	if cfg.Pitch <= 0 || cfg.MaxRings <= 0 {
		return nil, fmt.Errorf("legal: invalid config %+v", cfg)
	}
	n := len(nl.Instances)
	lg := &legalizer{
		ctx: ctx,
		cfg: cfg,
		nl:  nl,
		// The global-placement region is sized at TargetDensity < 1, so it
		// already carries the slack legalization needs; keeping the bounds
		// tight is what delivers the paper's compact-substrate result. A
		// small margin absorbs boundary quantization.
		bounds:   region.Inflate(region.W() * 0.02),
		placed:   make([]geom.Rect, n),
		isFixed:  make([]bool, n),
		partners: partnerLists(cm, n),
		spiral:   geom.SpiralOffsets(cfg.MaxRings),
		cell:     1.0,
		buckets:  make(map[[2]int][]int),
	}
	res := &Result{}
	lg.stats = res

	// Anchor positions: where global placement wanted each qubit, captured
	// before the greedy pass moves anything.
	anchors := make([]geom.Point, len(nl.QubitInst))
	for i, qi := range nl.QubitInst {
		anchors[i] = nl.Instances[qi].Pos
	}

	passes := []struct {
		name string
		run  func() error
	}{
		{"qubits", func() error { return lg.legalizeQubits(res) }},
		{"refine", func() error { return lg.refineQubits(res, anchors) }},
		{"segments", func() error { return lg.legalizeSegments(res) }},
		{"integrate", func() error { return lg.integrate(res) }},
		{"compact", func() error { return lg.compact(res) }},
	}
	for i, pass := range passes {
		passTimer := cfg.Span.Child(pass.name).Start()
		err := pass.run()
		passTimer.End()
		if err != nil {
			return nil, err
		}
		if cfg.Progress != nil {
			cfg.Progress(i+1, len(passes))
		}
	}
	noteFallbacks(cfg.Span, res)
	return res, nil
}

// overlapEps is the tolerance for overlap checks: rectangle widths are
// reconstructed from centre positions, so independent computations of "the
// same" footprint differ by ~1e-16 mm. It must not exceed the verifier's
// tolerance (internal/validate's overlapEps), or the legalizer ships
// penetrations the verifier reports as errors.
const overlapEps = 1e-9

// overlapsEps reports whether two rects overlap deeper than the tolerance.
func overlapsEps(a, b geom.Rect) bool {
	return a.Inflate(-overlapEps / 2).Overlaps(b.Inflate(-overlapEps / 2))
}

// noteFallbacks records a run's isolation fallbacks on its span.
func noteFallbacks(span *obs.Span, res *Result) {
	span.Note(fmt.Sprintf("guard fallbacks: %d, spot failures: %d", res.GuardFallbacks, res.SpotFailures))
}

// overlapsPlaced reports whether r overlaps any fixed legal rect, except
// instance skip's own (-1 skips none). Queries go through the spatial hash.
func (lg *legalizer) overlapsPlaced(r geom.Rect, skip int) bool {
	x0, y0, x1, y1 := lg.bucketRange(r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, id := range lg.buckets[[2]int{x, y}] {
				if id != skip && overlapsEps(r, lg.placed[id]) {
					return true
				}
			}
		}
	}
	return false
}

func (lg *legalizer) fix(id int, r geom.Rect) {
	if lg.isFixed[id] {
		lg.indexRemove(id, lg.placed[id])
	}
	lg.placed[id] = r
	lg.isFixed[id] = true
	lg.indexAdd(id, r)
}

// guardOK reports whether centre c keeps the isolation distance from the
// already-placed near-resonant partners of instance in, when the guards are
// on.
func (lg *legalizer) guardOK(in *component.Instance, c geom.Point) bool {
	return !lg.cfg.FrequencyAware || lg.isolated(in, c)
}

// isolated reports whether centre c keeps the isolation distance from every
// already-placed near-resonant partner of instance in.
func (lg *legalizer) isolated(in *component.Instance, c geom.Point) bool {
	guard := frequency.IsolationGuard(in.Kind)
	for _, pid := range lg.partners[in.ID] {
		if lg.isFixed[pid] && !guardedApart(lg.nl.Instances[pid].Pos, c, guard) {
			return false
		}
	}
	return true
}

// findSpot spiral-searches for the nearest position (grid pitch) where the
// instance's legal rect fits without overlap and — preferentially — clear
// of its near-resonant partners. If no guarded spot exists within the
// search radius, the nearest unguarded spot is used (the residual hotspot
// shows up in P_h, as in the paper). Returns the centre and true, or the
// original position and false.
func (lg *legalizer) findSpot(in *component.Instance, want geom.Point, skip int) (geom.Point, bool) {
	// Preference order: a guarded (isolation-preserving) spot anywhere —
	// escalating the bounds outward if needed — beats an unguarded spot
	// nearby. Only when no guarded spot exists at any escalation level does
	// the nearest free-but-unguarded spot get used; those fallbacks are the
	// residual hotspots P_h measures.
	fallback := geom.Point{}
	haveFallback := false
	for _, grow := range []float64{0, 0.08, 0.20} {
		bounds := lg.bounds
		if grow > 0 {
			bounds = bounds.Inflate(bounds.W() * grow)
		}
		spot, ok, fb, haveFB := lg.findSpotIn(in, want, skip, bounds)
		if ok {
			return spot, true
		}
		if haveFB && !haveFallback {
			fallback, haveFallback = fb, true
		}
	}
	if haveFallback {
		if lg.stats != nil {
			lg.stats.GuardFallbacks++
		}
		return fallback, true
	}
	if lg.stats != nil {
		lg.stats.SpotFailures++
	}
	return want, false
}

func (lg *legalizer) findSpotIn(in *component.Instance, want geom.Point, skip int, bounds geom.Rect) (spot geom.Point, ok bool, fallback geom.Point, haveFallback bool) {
	base := LegalRect(in)
	w, h := base.W(), base.H()
	for _, off := range lg.spiral {
		c := geom.Point{
			X: want.X + off.X*lg.cfg.Pitch,
			Y: want.Y + off.Y*lg.cfg.Pitch,
		}
		r := geom.RectAt(c, w, h)
		if !bounds.ContainsRect(r) {
			continue
		}
		if lg.overlapsPlaced(r, skip) {
			continue
		}
		if lg.guardOK(in, c) {
			return c, true, fallback, haveFallback
		}
		if !haveFallback {
			fallback = c
			haveFallback = true
		}
	}
	return want, false, fallback, haveFallback
}

// legalizeQubits runs the greedy spiral pass over qubits (densest first:
// sorted by distance from the layout centroid, centre-out, which keeps
// displacement low for the congested middle).
func (lg *legalizer) legalizeQubits(res *Result) error {
	var cx, cy float64
	for _, qi := range lg.nl.QubitInst {
		cx += lg.nl.Instances[qi].Pos.X
		cy += lg.nl.Instances[qi].Pos.Y
	}
	n := float64(len(lg.nl.QubitInst))
	centroid := geom.Point{X: cx / n, Y: cy / n}

	order := append([]int(nil), lg.nl.QubitInst...)
	sort.SliceStable(order, func(a, b int) bool {
		return lg.nl.Instances[order[a]].Pos.Dist2(centroid) <
			lg.nl.Instances[order[b]].Pos.Dist2(centroid)
	})
	for _, qi := range order {
		if err := lg.ctx.Err(); err != nil {
			return err
		}
		in := lg.nl.Instances[qi]
		spot, ok := lg.findSpot(in, in.Pos, -1)
		if ok {
			res.QubitDisplacement += spot.Dist(in.Pos)
			in.Pos = spot
		}
		lg.fix(qi, LegalRect(in))
	}
	return nil
}

// refineQubits reassigns qubits among the greedy-legalized sites with
// min-cost flow (the white-space redistribution of Tang et al. [88]),
// minimizing total squared displacement from the global-placement anchors.
// All qubit cells are identical 1.2 mm squares, so permuting qubits over the
// occupied sites preserves legality by construction.
func (lg *legalizer) refineQubits(res *Result, anchors []geom.Point) error {
	qubits := lg.nl.QubitInst
	if len(qubits) < 2 {
		return nil
	}
	// The min-cost-flow solve is the pass's one indivisible chunk; checking
	// here bounds the cancellation latency to that solve.
	if err := lg.ctx.Err(); err != nil {
		return err
	}
	sites := make([]geom.Point, len(qubits))
	for i, qi := range qubits {
		sites[i] = lg.nl.Instances[qi].Pos
	}
	costs := make([][]float64, len(qubits))
	for i := range costs {
		costs[i] = make([]float64, len(sites))
		for j, s := range sites {
			costs[i][j] = anchors[i].Dist2(s)
		}
	}
	assign, _ := mcmf.Assign(costs)
	for i, qi := range qubits {
		in := lg.nl.Instances[qi]
		moved := sites[assign[i]]
		res.QubitDisplacement += moved.Dist(in.Pos)
		in.Pos = moved
		lg.fix(qi, LegalRect(in))
	}
	return nil
}

// legalizeSegments runs the Tetris-style pass left to right over whole
// resonators ("adherence to established orders", §IV-C2): resonators are
// processed by ascending mean x, and within each resonator the segments are
// placed in chain order, every block anchored near its predecessor's final
// spot. Contiguity is thereby built in, and the integration stage only has
// to repair the stragglers squeezed out by congestion.
func (lg *legalizer) legalizeSegments(res *Result) error {
	order := make([]int, len(lg.nl.Resonators))
	meanX := make([]float64, len(lg.nl.Resonators))
	crowd := make([]int, len(lg.nl.Resonators))
	for i, r := range lg.nl.Resonators {
		order[i] = i
		for _, sid := range r.Segments {
			meanX[i] += lg.nl.Instances[sid].Pos.X
			crowd[i] += len(lg.partners[sid])
		}
		meanX[i] /= float64(len(r.Segments))
	}
	// Most collision-prone resonators first: they take guarded spots while
	// free space is still plentiful, so isolation survives the end-game
	// congestion; ties resolve left to right (the Tetris order).
	sort.SliceStable(order, func(a, b int) bool {
		if crowd[order[a]] != crowd[order[b]] {
			return crowd[order[a]] > crowd[order[b]]
		}
		return meanX[order[a]] < meanX[order[b]]
	})
	for _, rIdx := range order {
		if err := lg.ctx.Err(); err != nil {
			return err
		}
		var prev geom.Point
		havePrev := false
		for _, sid := range lg.nl.Resonators[rIdx].Segments {
			in := lg.nl.Instances[sid]
			// The chain force already ribbons each resonator during global
			// placement, so the position itself is the best anchor
			// (minimal displacement preserves the engine's isolation); the
			// predecessor serves as a secondary anchor when the primary
			// neighbourhood is saturated, keeping the chain contiguous.
			spot, ok := lg.findSpot(in, in.Pos, -1)
			if ok && havePrev && spot.Dist(prev) > 3*in.W {
				if alt, okAlt := lg.findSpot(in, prev, -1); okAlt {
					spot = alt
				}
			}
			if ok {
				res.SegmentDisplacement += spot.Dist(in.Pos)
				in.Pos = spot
			}
			lg.fix(sid, LegalRect(in))
			prev = in.Pos
			havePrev = true
		}
	}
	return nil
}

// clusters partitions a resonator's segments into contiguity clusters
// (edge-to-edge gap ≤ ClusterGap), largest first.
func (lg *legalizer) clusters(resIdx int) [][]int {
	return ResonatorClusters(lg.nl, resIdx, lg.cfg.ClusterGap)
}

// ResonatorClusters partitions a resonator's segments into contiguity
// clusters (edge-to-edge legal-rect gap ≤ gap), largest cluster first. One
// cluster means the resonator is integrated.
func ResonatorClusters(nl *component.Netlist, resIdx int, gap float64) [][]int {
	// Union-find over positions in segs.
	segs := nl.Resonators[resIdx].Segments
	parent := make([]int, len(segs))
	rects := make([]geom.Rect, len(segs))
	for i, s := range segs {
		parent[i] = i
		rects[i] = LegalRect(nl.Instances[s])
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := range segs {
		for j := i + 1; j < len(segs); j++ {
			if rects[i].Gap(rects[j]) <= gap {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := make([][]int, len(segs))
	for i, s := range segs {
		r := find(i)
		groups[r] = append(groups[r], s)
	}
	var out [][]int
	for _, g := range groups {
		if len(g) > 0 {
			sort.Ints(g)
			out = append(out, g)
		}
	}
	// Clusters are disjoint, so (size, first ID) orders them totally.
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) > len(out[b])
		}
		return out[a][0] < out[b][0]
	})
	return out
}

// integrate runs the resonator-integrity stage of Algorithm 1: resonators
// whose segments already form one cluster are fixed; fragmented ones have
// their scattered segments pulled to free spots adjacent to the largest
// cluster, or swapped with foreign segments beside the cluster when the
// swap keeps both resonators' frequencies non-resonant (the τ check) and
// does not fragment the donor.
func (lg *legalizer) integrate(res *Result) error {
	for pass := 0; pass < lg.cfg.MaxIntegrationPasses; pass++ {
		res.BrokenResonators = res.BrokenResonators[:0]
		for rIdx := range lg.nl.Resonators {
			if err := lg.ctx.Err(); err != nil {
				return err
			}
			cl := lg.clusters(rIdx)
			if len(cl) <= 1 {
				continue
			}
			main := cl[0]
			for _, frag := range cl[1:] {
				for _, sid := range frag {
					if lg.pullIn(sid, main, res) {
						main = append(main, sid)
					}
				}
			}
			if len(lg.clusters(rIdx)) > 1 {
				res.BrokenResonators = append(res.BrokenResonators, rIdx)
			}
		}
		if len(res.BrokenResonators) == 0 {
			break
		}
	}
	res.IntegratedAll = len(res.BrokenResonators) == 0
	sort.Ints(res.BrokenResonators)
	return nil
}

// pullIn moves segment sid next to the cluster; returns true on success.
func (lg *legalizer) pullIn(sid int, cluster []int, res *Result) bool {
	in := lg.nl.Instances[sid]
	if len(cluster) == 0 {
		return false
	}
	// Candidate anchors: every cluster segment, nearest first, so a congested
	// neighbourhood around the closest one does not doom the pull while the
	// far side of the cluster has room. Any anchor keeps contiguity — it is
	// in the cluster by definition.
	anchors := append([]int(nil), cluster...)
	sort.SliceStable(anchors, func(a, b int) bool {
		return lg.nl.Instances[anchors[a]].Pos.Dist2(in.Pos) <
			lg.nl.Instances[anchors[b]].Pos.Dist2(in.Pos)
	})
	// Free-spot search tightly around each anchor.
	base := LegalRect(in)
	step := base.W() + 0.02
	for _, cs := range anchors {
		anchor := lg.nl.Instances[cs].Pos
		for _, off := range []geom.Point{
			{X: step}, {X: -step}, {Y: step}, {Y: -step},
			{X: step, Y: step}, {X: -step, Y: step},
			{X: step, Y: -step}, {X: -step, Y: -step},
		} {
			c := anchor.Add(off)
			r := geom.RectAt(c, base.W(), base.H())
			if lg.bounds.ContainsRect(r) && !lg.overlapsPlaced(r, sid) && lg.guardOK(in, c) {
				res.SegmentDisplacement += c.Dist(in.Pos)
				in.Pos = c
				lg.fix(sid, LegalRect(in))
				return true
			}
		}
	}
	// Swap with a foreign segment adjacent to any anchor. A swap is accepted
	// only when it strictly reduces this resonator's cluster count — landing
	// near an anchor is not enough, the gap must actually close — while the
	// donor stays in one piece.
	before := len(lg.clusters(in.Resonator))
	for _, cs := range anchors {
		anchor := lg.nl.Instances[cs].Pos
		for _, other := range lg.nl.Instances {
			if other.Kind != component.KindSegment || other.Resonator == in.Resonator {
				continue
			}
			if other.Pos.Dist(anchor) > 2*step {
				continue
			}
			// τ check (Algorithm 1, line 12): the foreign segment must stay
			// detuned from this resonator's neighbourhood after the swap. A
			// segment of another resonator is near-resonant exactly when it
			// is one of sid's partners.
			if lg.isPartner(sid, other.ID) {
				continue
			}
			// Donor integrity plus isolation: the swap must not fragment the
			// other resonator, and both segments must stay clear of their
			// near-resonant partners at their new homes.
			oldA, oldB := in.Pos, other.Pos
			in.Pos, other.Pos = oldB, oldA
			lg.fix(sid, LegalRect(in))
			lg.fix(other.ID, LegalRect(other))
			if len(lg.clusters(other.Resonator)) == 1 &&
				len(lg.clusters(in.Resonator)) <= before &&
				lg.guardOK(in, in.Pos) && lg.guardOK(other, other.Pos) {
				res.SegmentDisplacement += oldA.Dist(oldB) * 2
				return true
			}
			// Revert.
			in.Pos, other.Pos = oldA, oldB
			lg.fix(sid, LegalRect(in))
			lg.fix(other.ID, LegalRect(other))
		}
	}
	return false
}

// isPartner reports whether id is a near-resonant partner of sid.
func (lg *legalizer) isPartner(sid, id int) bool {
	p := lg.partners[sid]
	k := sort.SearchInts(p, id)
	return k < len(p) && p[k] == id
}

// compact pulls outlying segments toward the layout centroid to shrink the
// enclosing rectangle, accepting a move only when it (a) lands strictly
// closer to the centroid, (b) keeps the segment's resonator in one cluster,
// and (c) keeps the isolation guard from its near-resonant partners, so
// compaction never reintroduces hotspots.
func (lg *legalizer) compact(res *Result) error {
	if lg.cfg.CompactionPasses <= 0 {
		return nil
	}
	var cx, cy float64
	for _, in := range lg.nl.Instances {
		cx += in.Pos.X
		cy += in.Pos.Y
	}
	n := float64(len(lg.nl.Instances))
	centroid := geom.Point{X: cx / n, Y: cy / n}

	var segs []int
	for _, in := range lg.nl.Instances {
		if in.Kind == component.KindSegment {
			segs = append(segs, in.ID)
		}
	}
	for pass := 0; pass < lg.cfg.CompactionPasses; pass++ {
		sort.SliceStable(segs, func(a, b int) bool {
			return lg.nl.Instances[segs[a]].Pos.Dist2(centroid) >
				lg.nl.Instances[segs[b]].Pos.Dist2(centroid)
		})
		movedAny := false
		for _, sid := range segs {
			if err := lg.ctx.Err(); err != nil {
				return err
			}
			in := lg.nl.Instances[sid]
			old := in.Pos
			target := geom.Point{
				X: centroid.X + (old.X-centroid.X)*0.9,
				Y: centroid.Y + (old.Y-centroid.Y)*0.9,
			}
			spot, ok := lg.findSpot(in, target, sid)
			if !ok || spot.Dist2(centroid) >= old.Dist2(centroid)-1e-9 {
				continue
			}
			if !lg.guardOK(in, spot) {
				continue
			}
			in.Pos = spot
			lg.fix(sid, LegalRect(in))
			if !lg.compactionSafe(sid) {
				in.Pos = old
				lg.fix(sid, LegalRect(in))
				continue
			}
			res.SegmentDisplacement += spot.Dist(old)
			movedAny = true
		}
		if !movedAny {
			break
		}
	}
	return nil
}

// compactionSafe checks the integrity and isolation guards for a segment at
// its current position. Unlike guardOK it ignores FrequencyAware:
// compaction is an optional area optimization and never trades isolation
// for area.
func (lg *legalizer) compactionSafe(sid int) bool {
	in := lg.nl.Instances[sid]
	return len(lg.clusters(in.Resonator)) == 1 && lg.isolated(in, in.Pos)
}

// OverlapReport lists residual overlapping legal-rect pairs (diagnostics).
func OverlapReport(nl *component.Netlist) [][2]int {
	var out [][2]int
	n := len(nl.Instances)
	for i := 0; i < n; i++ {
		ri := LegalRect(nl.Instances[i])
		for j := i + 1; j < n; j++ {
			if overlapsEps(ri, LegalRect(nl.Instances[j])) {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}
