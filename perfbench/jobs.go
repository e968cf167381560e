package main

import (
	"math/rand"

	"qplacer"
)

// Workload names, as passed to --workload.
const (
	wlEagle   = "eagle-shelf"
	wlGrid    = "grid144-greedy"
	wlService = "qplacerd-mix"
)

// workloads lists every workload in the order the report prints them.
var workloads = []string{wlEagle, wlGrid, wlService}

// libraryListLen is the length of each library workload's job list. Every
// run completes the whole list at least once (so the quality means, taken
// over the list, repeat exactly for a seed), then keeps cycling it until
// the run time is up. Job times and fidelity vary by about 10% from one
// placement seed to the next, so a list needs several seeds for its median
// and means to hold still from one workload seed to the next. The lengths
// are what the run-time budget affords: an eagle job takes 4-10 s on a
// 2-CPU host and a grid-144 job 2-4.5 s, depending on the host's speed.
var libraryListLen = map[string]int{wlEagle: 3, wlGrid: 3}

// drawSeed returns a placement seed; 0 is avoided because it normalizes to 1.
func drawSeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<30) }

// libraryJobs generates the job list of a library workload from the
// workload seed. Only the placement seed varies: the topology and backends
// are what the workload is about.
func libraryJobs(workload string, seed int64) []qplacer.Options {
	base := qplacer.Options{Topology: "eagle", Placer: "nesterov", Legalizer: "shelf", DetailedPlacer: "none"}
	if workload == wlGrid {
		base = qplacer.Options{Topology: "grid-144", Placer: "nesterov", Legalizer: "greedy", DetailedPlacer: "none"}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]qplacer.Options, libraryListLen[workload])
	for i := range out {
		out[i] = base
		out[i].Seed = drawSeed(rng)
	}
	return out
}

// Kinds of qplacerd-mix jobs, by which cache they are meant to reach.
const (
	kindCold     = "cold"     // a (topology, lb) stage key the server has not built
	kindVariant  = "variant"  // a built stage key with a fresh seed: engine stage-cache hit
	kindResubmit = "resubmit" // an exact earlier request: server dedup hit
)

// mixJob is one request of the qplacerd-mix stream. A resubmit repeats the
// options of an earlier request: From is that request's index in the
// stream, or -1 for the set-up's warm-up job.
type mixJob struct {
	Opts qplacer.Options
	Kind string
	From int
}

// The qplacerd-mix stream is a sequence of blocks of mixBlock requests,
// all with the same make-up: one exact resubmit of an earlier, finished
// request (a server dedup hit) and one computed job per slot below. Only
// the order within a block, the placement seeds and which request is
// resubmitted come from the workload seed. The slots span four
// (topology, lb) stage keys, so block 0 builds each of them cold and every
// later computed job is a seed-only variant (an engine stage-cache hit).
//
// The repository records no qplacerd traffic, so the shares are a
// synthetic design, unverified against real clients. They are anchored on
// the one request shape the repository documents: README.md and
// docs/API.md submit a topology and lb only, which the server completes
// with its default backends (nesterov, shelf, none). That request is 4 of
// the 7 computed jobs, and 5 of 7 use the default shelf legalizer, so the
// median job is a default-pipeline job. The other three slots cover the
// detail stage (swap, mcmf) and the greedy legalizer.
//
// The fixed make-up gives every seed the same latency shape: a fast dedup
// mode (1 of 8), a greedy mode (2 of 8) at about 0.7 s, and shelf jobs
// (5 of 8) at 1.5-3 s, with the median among the falcon ones. Per-topology
// job times differ by 2-4x, so a seeded topology mix would move the median,
// the per-job costs and the quality means from seed to seed; and since
// every block is alike, a run's make-up does not depend on how many blocks
// it completes.
var mixSlots = []qplacer.Options{
	{Topology: "falcon", LB: 0.3},
	{Topology: "falcon", LB: 0.3},
	{Topology: "grid", LB: 0.3},
	{Topology: "grid", LB: 0.3},
	{Topology: "falcon", LB: 0.3, DetailedPlacer: "swap"},
	{Topology: "xtree", LB: 0.3, Legalizer: "greedy", DetailedPlacer: "mcmf"},
	{Topology: "aspen11", LB: 0.3, Legalizer: "greedy", DetailedPlacer: "swap"},
}

const (
	mixResubmits = 1
	mixBlock     = 8 // len(mixSlots) + mixResubmits
	// mixQualityBlocks is how many leading blocks every run completes; the
	// quality means are taken over their computed jobs.
	mixQualityBlocks = 2
	mixQualityLen    = mixQualityBlocks * mixBlock
	// mixStreamLen bounds a run's stream; a run ends on time long before.
	mixStreamLen = 128 * mixBlock
)

// warmupOptions is the qplacerd-mix warm-up job. Its lb is used by no slot,
// so warming up leaves every stage key of the stream cold.
var warmupOptions = qplacer.Options{Topology: "falcon", LB: 0.25, Seed: 1, Placer: "nesterov", Legalizer: "greedy", DetailedPlacer: "none"}

// serviceStream generates the qplacerd-mix request stream from the workload
// seed. A resubmit in block b repeats a computed request of an earlier block
// (block 0 repeats the warm-up job), so it can be served from a finished
// job; driveMix waits for that job's result before sending it.
func serviceStream(seed int64) []mixJob {
	rng := rand.New(rand.NewSource(seed))
	type stageKey struct {
		topology string
		lb       float64
	}
	built := map[stageKey]bool{}
	var computed []int // stream indices of the computed requests of earlier blocks
	out := make([]mixJob, 0, mixStreamLen)
	for len(out) < mixStreamLen {
		// Slot indices, with -1 for a resubmit, in a seeded order.
		order := make([]int, 0, mixBlock)
		for s := range mixSlots {
			order = append(order, s)
		}
		for r := 0; r < mixResubmits; r++ {
			order = append(order, -1)
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		blockStart := len(out)
		for _, s := range order {
			if s < 0 {
				job := mixJob{Opts: warmupOptions, Kind: kindResubmit, From: -1}
				if len(computed) > 0 {
					job.From = computed[rng.Intn(len(computed))]
					job.Opts = out[job.From].Opts
				}
				out = append(out, job)
				continue
			}
			job := mixJob{Kind: kindVariant, Opts: mixSlots[s], From: -1}
			job.Opts.Seed = drawSeed(rng)
			key := stageKey{job.Opts.Topology, job.Opts.LB}
			if !built[key] {
				built[key] = true
				job.Kind = kindCold
			}
			out = append(out, job)
		}
		for i := blockStart; i < len(out); i++ {
			if out[i].Kind != kindResubmit {
				computed = append(computed, i)
			}
		}
	}
	return out
}
