package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qplacer"
	"qplacer/server"
	"qplacer/server/journal"
)

// mixClients is the number of closed-loop clients; the server runs its
// default two workers.
const mixClients = 2

// pollEvery is how long a client waits between status polls of a running
// job. It bounds the latency the poll itself adds to a job.
const pollEvery = 5 * time.Millisecond

// jobTimeout fails a request that has not finished in this long; the
// slowest mix job takes a few seconds.
const jobTimeout = 60 * time.Second

// httpClient bounds every call so a wedged server fails the run instead of
// hanging it.
var httpClient = &http.Client{Timeout: jobTimeout}

// service is an in-process qplacerd behind a loopback httptest server, with
// a journal store in its own directory.
type service struct {
	srv *server.Server
	ts  *httptest.Server
	dir string
}

func startService(tmpRoot string) (*service, error) {
	dir, err := os.MkdirTemp(tmpRoot, "journal-")
	if err != nil {
		return nil, err
	}
	st, err := journal.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open journal: %w", err)
	}
	srv := server.New(server.Config{Store: st})
	return &service{srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

// stop closes the listener, drains the manager (which closes the journal)
// and removes the journal directory.
func (s *service) stop() error {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// interval is a timed client call.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// resultDoc is the part of GET /v1/jobs/{id}/result the benchmark reads.
type resultDoc struct {
	Plan struct {
		Options         qplacer.Options     `json:"options"`
		Metrics         json.RawMessage     `json:"metrics"`
		PlaceIterations int                 `json:"place_iterations"`
		DetailMoved     int                 `json:"detail_moved"`
		Timings         *qplacer.SpanTiming `json:"timings"`
	} `json:"plan"`
	Batch *struct {
		MeanFidelity  float64 `json:"mean_fidelity"`
		TotalMappings int     `json:"total_mappings"`
		ElapsedNS     int64   `json:"elapsed_ns"`
	} `json:"batch"`
	Validation *qplacer.ValidationReport `json:"validation"`
}

// quality is the part of a plan's metrics the report averages.
type quality struct {
	Amer float64 `json:"amer_mm2"`
	Ph   float64 `json:"ph_percent"`
}

// serviceJob is one request's trip through the service.
type serviceJob struct {
	ran      bool
	opts     qplacer.Options
	cached   bool
	rejected bool // refused with 429
	job      interval
	submit   interval
	polls    []interval
	result   interval
	view     server.JobView
	size     int
	doc      resultDoc
	quality  quality
	decoded  bool // doc and quality hold a served result
	err      error
}

func (s *service) post(path string, body any, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := httpClient.Post(s.ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return resp.StatusCode, json.Unmarshal(raw, out)
}

func (s *service) get(path string, accept string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, s.ts.URL+path, nil)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// runJob submits one request, polls its status until it is terminal and
// fetches the result document: the flow every qplacerd client runs. A
// resubmit fails unless the server answers it from the dedup cache with a
// job that has already finished.
func (s *service) runJob(opts qplacer.Options, resubmit bool) (out serviceJob) {
	out = serviceJob{ran: true, opts: opts}
	out.job.start = time.Now()
	defer func() { out.job.end = time.Now() }()

	var sub server.SubmitResponse
	out.submit.start = time.Now()
	status, err := s.post("/v1/plans", server.PlanRequest{
		Options: opts, Benchmarks: qplacer.Benchmarks(), Mappings: qplacer.DefaultMappings,
	}, &sub)
	out.submit.end = time.Now()
	if status == http.StatusTooManyRequests {
		out.rejected = true
	}
	if err != nil {
		out.err = err
		return out
	}
	out.cached = sub.Cached
	out.view = sub.Job
	if resubmit && (!sub.Cached || sub.Job.State != server.StateDone) {
		out.err = fmt.Errorf("resubmit of %+v: cached %v, job %s %s; want a dedup hit on a finished job",
			opts, sub.Cached, sub.Job.ID, sub.Job.State)
		return out
	}
	for !terminal(out.view.State) {
		if time.Since(out.job.start) > jobTimeout {
			out.err = fmt.Errorf("job %s not finished after %v", out.view.ID, jobTimeout)
			return out
		}
		time.Sleep(pollEvery)
		iv := interval{start: time.Now()}
		raw, err := s.get("/v1/jobs/"+sub.Job.ID, "")
		iv.end = time.Now()
		out.polls = append(out.polls, iv)
		if err != nil {
			out.err = err
			return out
		}
		if err := json.Unmarshal(raw, &out.view); err != nil {
			out.err = err
			return out
		}
	}
	if out.view.State != server.StateDone {
		out.err = fmt.Errorf("job %s ended %s: %s", out.view.ID, out.view.State, out.view.Error)
		return out
	}
	out.result.start = time.Now()
	raw, err := s.get("/v1/jobs/"+sub.Job.ID+"/result", "")
	out.result.end = time.Now()
	if err != nil {
		out.err = err
		return out
	}
	out.size = len(raw)
	if err := json.Unmarshal(raw, &out.doc); err != nil {
		out.err = fmt.Errorf("decode result: %w", err)
		return out
	}
	if out.doc.Batch == nil {
		out.err = errors.New("result document has no batch evaluation")
		return out
	}
	if err := json.Unmarshal(out.doc.Plan.Metrics, &out.quality); err != nil {
		out.err = fmt.Errorf("decode plan metrics: %w", err)
		return out
	}
	out.decoded = true
	out.err = checkOutputs(out.doc.Validation, out.doc.Batch.MeanFidelity)
	if out.err != nil {
		out.err = fmt.Errorf("%+v: %w", opts, out.err)
	}
	return out
}

func terminal(s server.State) bool {
	return s == server.StateDone || s == server.StateFailed || s == server.StateCancelled
}

// driveMix runs the closed-loop clients over the stream until the run time
// is up, and at least through the first mixQualityBlocks blocks. It only
// stops at a block boundary, so every run's requests have the same make-up.
// A client holds a resubmit until the client running the request it
// repeats is done with it, so the server answers it from a finished job;
// the wait is not part of the job's time. It returns the requests that ran,
// a prefix of the stream.
func (s *service) driveMix(stream []mixJob, dur time.Duration) []serviceJob {
	jobs := make([]serviceJob, len(stream))
	finished := make([]chan struct{}, len(stream))
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	deadline := time.Now().Add(dur)
	var mu sync.Mutex
	next, stopped := 0, false
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopped && next%mixBlock == 0 && next >= mixQualityLen && time.Now().After(deadline) {
			stopped = true
		}
		if stopped || next >= len(stream) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				resubmit := stream[i].Kind == kindResubmit
				if resubmit && stream[i].From >= 0 {
					<-finished[stream[i].From]
				}
				jobs[i] = s.runJob(stream[i].Opts, resubmit)
				close(finished[i])
			}
		}()
	}
	wg.Wait()
	return jobs[:next]
}

// promScrape fetches /metrics in the Prometheus text format and returns
// its unlabelled samples by name.
func (s *service) promScrape() (map[string]float64, error) {
	raw, err := s.get("/metrics", "text/plain")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// crossCheck re-plans each distinct option set in process and requires the
// result document's plan metrics and mean fidelity to equal the in-process
// ones. It runs after the timed section; a mismatch fails every job that
// carried the option set.
func crossCheck(ctx context.Context, jobs []serviceJob) {
	first := map[qplacer.Options]int{}
	var order []int
	for i, j := range jobs {
		if j.err != nil {
			continue
		}
		if _, ok := first[j.opts]; !ok {
			first[j.opts] = i
			order = append(order, i)
		}
	}
	eng := qplacer.New(qplacer.WithValidation(qplacer.ValidationAnnotate))
	mismatch := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < mixClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				i := order[k]
				mismatch[i] = compareInProcess(ctx, eng, jobs[i])
			}
		}()
	}
	wg.Wait()
	for i := range jobs {
		if jobs[i].err != nil {
			continue
		}
		if err := mismatch[first[jobs[i].opts]]; err != nil {
			jobs[i].err = err
		}
	}
}

func compareInProcess(ctx context.Context, eng *qplacer.Engine, j serviceJob) error {
	plan, err := eng.Plan(ctx, qplacer.WithOptions(j.opts))
	if err != nil {
		return fmt.Errorf("in-process plan: %w", err)
	}
	batch, err := eng.EvaluateAll(ctx, plan, qplacer.Benchmarks(), qplacer.DefaultMappings)
	if err != nil {
		return fmt.Errorf("in-process evaluation: %w", err)
	}
	raw, err := json.Marshal(plan)
	if err != nil {
		return err
	}
	var local struct {
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &local); err != nil {
		return err
	}
	var want, got any
	if err := json.Unmarshal(local.Metrics, &want); err != nil {
		return err
	}
	if err := json.Unmarshal(j.doc.Plan.Metrics, &got); err != nil {
		return err
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("served metrics differ from an in-process plan of %+v", j.opts)
	}
	if batch.MeanFidelity != j.doc.Batch.MeanFidelity {
		return fmt.Errorf("served mean fidelity %v, in-process %v for %+v", j.doc.Batch.MeanFidelity, batch.MeanFidelity, j.opts)
	}
	return nil
}
