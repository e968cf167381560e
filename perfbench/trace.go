package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one job share Job;
// Parent indexes the enclosing span (-1 for a job's root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Job    int       `json:"job"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps every span in memory until the run ends; nothing is written
// while jobs are being timed.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// record appends a finished span and returns its id.
func (t *tracer) record(job, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: end})
	return id
}

// begin opens a span whose end is set later by finish.
func (t *tracer) begin(job, parent int, name string) int {
	now := time.Now()
	return t.record(job, parent, name, now, now)
}

func (t *tracer) finish(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the self time of each job's spans of
// that name summed within the job: a span's duration minus the part of its
// interval that its children cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type key struct {
		name string
		job  int
	}
	perJob := map[key]time.Duration{}
	var order []key
	for _, s := range t.spans {
		k := key{s.Name, s.Job}
		if _, ok := perJob[k]; !ok {
			order = append(order, k)
		}
		perJob[k] += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	out := map[string][]time.Duration{}
	for _, k := range order {
		out[k.name] = append(out[k.name], perJob[k])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			total += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}

// write saves the spans as JSON, one object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
