package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"qplacer"
	"qplacer/internal/parallel"
)

// closedLoop runs jobs back to back, one caller, cycling the job list of
// length n: at least one full pass, then until dur has elapsed.
func closedLoop(n int, dur time.Duration, job func(i int) jobOutcome) (outs []jobOutcome, w window) {
	w = openWindow()
	for i := 0; i < n || time.Since(w.start) < dur; i++ {
		outs = append(outs, job(i%n))
	}
	return outs, w
}

// librarySetup is one set-up of a library workload: the per-process
// parallel-cutoff calibration (a no-op after the first) and one unmeasured
// warm-up job, which builds its own fresh engine.
func librarySetup(ctx context.Context, opts qplacer.Options) (time.Duration, error) {
	start := time.Now()
	parallel.AutoCutoffs()
	if o := engineJob(ctx, opts); o.err != nil {
		return 0, fmt.Errorf("warm-up job: %w", o.err)
	}
	return time.Since(start), nil
}

func libraryE2E(ctx context.Context, workload string, seed int64, dur time.Duration) (*report, error) {
	list := libraryJobs(workload, seed)
	m := &measured{}
	for k := 0; k < setupReps; k++ {
		d, err := librarySetup(ctx, list[0])
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, d.Seconds())
	}
	rss := startRSSSampler()
	ran := 0
	outs, w := closedLoop(len(list), dur, func(i int) jobOutcome {
		o := engineJob(ctx, list[i])
		if ran < len(list) && o.batch != nil {
			m.amer = append(m.amer, o.plan.Metrics.Amer)
			m.ph = append(m.ph, o.plan.Metrics.Ph)
			m.fidels = append(m.fidels, o.batch.MeanFidelity)
		}
		ran++
		// Keeping every plan would add the harness's memory to the
		// next jobs' resident set.
		o.plan, o.batch = nil, nil
		return o
	})
	m.wall, m.cpu, m.alloc = w.close()
	m.maxRSSMB = peakRSSMB()
	if err := rss.close(); err != nil {
		return nil, err
	}
	for _, o := range outs {
		m.walls = append(m.walls, o.wall.Seconds())
		m.errs = append(m.errs, o.err)
		m.rss = append(m.rss, rss.peakMB(o.start, o.start.Add(o.wall)))
	}
	return m.report(), nil
}

// libraryTraced sets up once, runs the job list untraced through Engine.Plan
// and then traced through the staged pipeline, and reports per-layer numbers
// only if the staged pipeline reproduced Engine.Plan on the first job.
func libraryTraced(ctx context.Context, workload string, seed int64, dur time.Duration, spanFile string) (*report, error) {
	list := libraryJobs(workload, seed)
	if _, err := librarySetup(ctx, list[0]); err != nil {
		return nil, err
	}
	plain, _ := closedLoop(len(list), dur, func(i int) jobOutcome { return engineJob(ctx, list[i]) })

	tr := &tracer{}
	var staged []stagedJob
	tracedOuts, _ := closedLoop(len(list), dur, func(i int) jobOutcome {
		j := runStaged(ctx, list[i], tr, len(staged))
		staged = append(staged, j)
		return j.jobOutcome
	})
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}
	if plain[0].err != nil || staged[0].err != nil {
		return nil, fmt.Errorf("parity: first job failed: Engine.Plan: %v, staged pipeline: %v", plain[0].err, staged[0].err)
	}
	if err := checkParity(plain[0].plan, staged[0].plan); err != nil {
		return nil, err
	}

	r := newReport()
	for _, o := range tracedOuts {
		r.attempted++
		if o.err != nil {
			r.failed++
			r.note("job failed: %v", o.err)
		}
	}
	r.correct = r.failed < r.attempted
	self := tr.selfTimes()
	for _, l := range []string{layerStage, layerPlace, layerLegal, layerDetail, layerMetrics, layerValidate, layerEvaluate} {
		r.setMedianMS(l+".wall_ms", self[l])
	}
	r.setMedianMS("job.self_ms", self["job"])
	perJob := func(name string, f func(j stagedJob) (float64, bool)) {
		var xs []float64
		for _, j := range staged {
			if j.err != nil {
				continue
			}
			if v, ok := f(j); ok {
				xs = append(xs, v)
			}
		}
		r.set(name, orZero(median(xs)), len(xs))
	}
	layerCost := func(layer string, cpu bool) func(j stagedJob) (float64, bool) {
		return func(j stagedJob) (float64, bool) {
			s, ok := j.layers[layer]
			if cpu {
				return ms(s.cpu), ok
			}
			return float64(s.alloc) / 1e6, ok
		}
	}
	perJob("stage.alloc_mb", layerCost(layerStage, false))
	perJob("stage.collision_pairs", func(j stagedJob) (float64, bool) { return float64(j.pairs), true })
	perJob("place.cpu_ms", layerCost(layerPlace, true))
	perJob("place.alloc_mb", layerCost(layerPlace, false))
	perJob("place.iterations", func(j stagedJob) (float64, bool) { return float64(j.plan.PlaceIterations), true })
	perJob("legal.cpu_ms", layerCost(layerLegal, true))
	perJob("legal.alloc_mb", layerCost(layerLegal, false))
	perJob("legal.displacement_mm", func(j stagedJob) (float64, bool) { return j.displacement, true })
	perJob("detail.moved", func(j stagedJob) (float64, bool) {
		_, ok := j.layers[layerDetail]
		return float64(j.plan.DetailMoved), ok
	})
	perJob("validate.warnings", func(j stagedJob) (float64, bool) { return float64(j.plan.Validation.Warnings), true })
	perJob("evaluate.mappings", func(j stagedJob) (float64, bool) { return float64(j.batch.TotalMappings), true })
	setOverhead(r, plain, tracedOuts)
	r.note("parity: staged pipeline matches Engine.Plan on job 0 (positions hash %016x)", positionsHash(staged[0].plan.Netlist))
	r.note("spans written to %s", spanFile)
	return r, nil
}

// setOverhead reports tracing overhead as traced minus untraced job_s_p50.
func setOverhead(r *report, plain, traced []jobOutcome) {
	p50 := func(outs []jobOutcome) float64 {
		xs := make([]float64, len(outs))
		for i, o := range outs {
			xs[i] = ms(o.wall)
		}
		return median(xs)
	}
	r.set("trace.overhead_ms", p50(traced)-p50(plain), len(traced))
	r.note("trace.overhead_ms: traced p50 %.1f ms (n=%d) minus untraced p50 %.1f ms (n=%d)",
		p50(traced), len(traced), p50(plain), len(plain))
}

// setMedianMS sets name to the median of ds in milliseconds, or 0 when the
// workload never reached the layer.
func (r *report) setMedianMS(name string, ds []time.Duration) {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	r.set(name, orZero(median(xs)), len(xs))
}

// orZero maps the NaN median of an empty sample set to 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// serviceSetup is one set-up of qplacerd-mix: a fresh server with its journal
// and one unmeasured warm-up job through the HTTP flow.
func serviceSetup(tmp string) (*service, time.Duration, error) {
	start := time.Now()
	parallel.AutoCutoffs()
	svc, err := startService(tmp)
	if err != nil {
		return nil, 0, err
	}
	if j := svc.runJob(warmupOptions, false); j.err != nil {
		svc.stop()
		return nil, 0, fmt.Errorf("warm-up job: %w", j.err)
	}
	return svc, time.Since(start), nil
}

func serviceE2E(ctx context.Context, seed int64, dur time.Duration, tmp string) (*report, error) {
	stream := serviceStream(seed)
	m := &measured{}
	var svc *service
	for k := 0; k < setupReps; k++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if svc, d, err = serviceSetup(tmp); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, d.Seconds())
	}
	rss := startRSSSampler()
	w := openWindow()
	jobs := svc.driveMix(stream, dur)
	m.wall, m.cpu, m.alloc = w.close()
	m.maxRSSMB = peakRSSMB()
	if err := rss.close(); err != nil {
		svc.stop()
		return nil, err
	}
	if err := svc.stop(); err != nil {
		return nil, err
	}
	crossCheck(ctx, jobs)
	for i, j := range jobs {
		m.walls = append(m.walls, j.job.dur().Seconds())
		m.rss = append(m.rss, rss.peakMB(j.job.start, j.job.end))
		m.errs = append(m.errs, j.err)
		if j.rejected {
			m.rejected++
		}
		if i < mixQualityLen && stream[i].Kind != kindResubmit && j.decoded {
			m.amer = append(m.amer, j.quality.Amer)
			m.ph = append(m.ph, j.quality.Ph)
			m.fidels = append(m.fidels, j.doc.Batch.MeanFidelity)
		}
	}
	r := m.report()
	r.note("cross-check: %d distinct option sets re-planned in process", distinctOptions(jobs))
	return r, nil
}

func distinctOptions(jobs []serviceJob) int {
	seen := map[qplacer.Options]bool{}
	for _, j := range jobs {
		seen[j.opts] = true
	}
	return len(seen)
}

// serviceTraced runs the stream untraced on one fresh server and traced on
// another. Client-side spans come from the timing of each HTTP call and the
// job view's created/started/finished times; in-server layer times come
// from the plan timings in each computed job's result document, and the
// service counters from /metrics scrapes around the traced phase.
func serviceTraced(ctx context.Context, seed int64, dur time.Duration, tmp, spanFile string) (*report, error) {
	stream := serviceStream(seed)
	svc, _, err := serviceSetup(tmp)
	if err != nil {
		return nil, err
	}
	plain := svc.driveMix(stream, dur)
	if err := svc.stop(); err != nil {
		return nil, err
	}
	if svc, _, err = serviceSetup(tmp); err != nil {
		return nil, err
	}
	before, err := svc.promScrape()
	if err != nil {
		svc.stop()
		return nil, err
	}
	traced := svc.driveMix(stream, dur)
	after, err := svc.promScrape()
	if stopErr := svc.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}

	tr := &tracer{}
	r := newReport()
	var submitMS, queueMS, runMS, resultMS, resultKB []float64
	layer := map[string][]float64{}
	add := func(name string, v float64) { layer[name] = append(layer[name], v) }
	cached := 0
	for i, j := range traced {
		r.attempted++
		if j.err != nil {
			r.failed++
			r.note("job failed: %v", j.err)
		}
		root := tr.record(i, -1, "job", j.job.start, j.job.end)
		tr.record(i, root, "http.submit", j.submit.start, j.submit.end)
		submitMS = append(submitMS, ms(j.submit.dur()))
		for _, p := range j.polls {
			tr.record(i, root, "http.poll", p.start, p.end)
		}
		if j.err != nil {
			continue
		}
		tr.record(i, root, "http.result", j.result.start, j.result.end)
		resultMS = append(resultMS, ms(j.result.dur()))
		resultKB = append(resultKB, float64(j.size)/1e3)
		if j.cached {
			cached++
			continue
		}
		v := j.view
		if v.StartedAt != nil && v.FinishedAt != nil {
			tr.record(i, root, "server.queue", v.CreatedAt, *v.StartedAt)
			tr.record(i, root, "server.run", *v.StartedAt, *v.FinishedAt)
			queueMS = append(queueMS, ms(v.StartedAt.Sub(v.CreatedAt)))
			runMS = append(runMS, ms(v.FinishedAt.Sub(*v.StartedAt)))
		}
		t := j.doc.Plan.Timings
		for _, l := range []struct{ span, metric string }{
			{"stage", "stage"}, {"place", "place"}, {"legalize", "legal"}, {"detail", "detail"},
			{"metrics", "metrics"}, {"validate", "validate"},
		} {
			if n := t.Find(l.span); n != nil {
				add(l.metric+".wall_ms", n.WallMS)
				if l.metric == "place" || l.metric == "legal" {
					add(l.metric+".cpu_ms", n.CPUMS)
				}
			}
		}
		if t.Find("detail") != nil {
			add("detail.moved", float64(j.doc.Plan.DetailMoved))
		}
		add("place.iterations", float64(j.doc.Plan.PlaceIterations))
		add("validate.warnings", float64(j.doc.Validation.Warnings))
		add("evaluate.wall_ms", float64(j.doc.Batch.ElapsedNS)/1e6)
		add("evaluate.mappings", float64(j.doc.Batch.TotalMappings))
	}
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}
	r.correct = r.failed < r.attempted
	for name, xs := range layer {
		r.set(name, median(xs), len(xs))
	}
	r.setMedianMS("job.self_ms", tr.selfTimes()["job"])
	r.set("server.submit_ms", median(submitMS), len(submitMS))
	r.set("server.queue_wait_ms", orZero(median(queueMS)), len(queueMS))
	r.set("server.run_ms", orZero(median(runMS)), len(runMS))
	r.set("server.result_ms", orZero(median(resultMS)), len(resultMS))
	r.set("server.result_kb", orZero(median(resultKB)), len(resultKB))
	r.set("server.dedup_ratio", ratio{cached, len(traced)}.value(), len(traced))
	r.note("server.dedup_ratio = %d cached submits / %d submits", cached, len(traced))
	delta := func(name string) float64 { return after[name] - before[name] }
	r.set("server.rejected", delta("qplacerd_quota_denied_total"), 1)
	hits, misses := delta("qplacerd_engine_stage_cache_hits_total"), delta("qplacerd_engine_stage_cache_misses_total")
	r.set("engine.stage_hit_ratio", ratio{int(hits), int(hits + misses)}.value(), int(hits+misses))
	r.note("engine.stage_hit_ratio = %.0f hits / %.0f stage lookups", hits, hits+misses)
	fsyncs := delta("qplacerd_journal_fsync_seconds_count")
	r.set("journal.fsync_ms", orZero(delta("qplacerd_journal_fsync_seconds_sum")*1e3/fsyncs), int(fsyncs))

	toOutcomes := func(js []serviceJob) []jobOutcome {
		out := make([]jobOutcome, len(js))
		for i, j := range js {
			out[i] = jobOutcome{wall: j.job.dur(), err: j.err}
		}
		return out
	}
	setOverhead(r, toOutcomes(plain), toOutcomes(traced))
	r.note("spans written to %s", spanFile)
	return r, nil
}
