package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB), over its whole life.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// window measures the process-wide cost of a stretch of work.
type window struct {
	start time.Time
	cpu   time.Duration
	alloc uint64
}

func openWindow() window {
	return window{start: time.Now(), cpu: cpuTime(), alloc: totalAlloc()}
}

// close returns the wall time, CPU time and bytes allocated since open.
func (w window) close() (wall, cpu time.Duration, alloc uint64) {
	return time.Since(w.start), cpuTime() - w.cpu, totalAlloc() - w.alloc
}

// rssEvery is how often an rssSampler reads the resident set size.
const rssEvery = 5 * time.Millisecond

// rssSampler reads the process's resident set size every rssEvery until it
// is closed, so that each job's peak can be read off its own interval. The
// process-wide peak (ru_maxrss) is set by whichever job met the least lucky
// GC cycle, and it grows with the number of jobs a run fits in; the median
// of per-job peaks moves when jobs need more memory.
type rssSampler struct {
	stop, done chan struct{}
	at         []time.Time
	mb         []float64
	err        error
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				s.err = err
				return
			}
			s.at = append(s.at, time.Now())
			s.mb = append(s.mb, mb)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// close stops the sampler and waits for it; peakMB may be called after.
func (s *rssSampler) close() error {
	close(s.stop)
	<-s.done
	return s.err
}

// peakMB is the largest sample taken in [start, end], or the last one taken
// before end when the interval falls between two samples.
func (s *rssSampler) peakMB(start, end time.Time) float64 {
	i := sort.Search(len(s.at), func(k int) bool { return !s.at[k].Before(start) })
	j := sort.Search(len(s.at), func(k int) bool { return s.at[k].After(end) })
	if i >= j {
		if j == 0 {
			return 0
		}
		return s.mb[j-1]
	}
	peak := 0.0
	for _, v := range s.mb[i:j] {
		peak = max(peak, v)
	}
	return peak
}

// residentMB is the process's current resident set size in MB.
func residentMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", raw)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / 1e6, nil
}
