package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/edge"
	"repro/internal/media"
)

// client is one keep-alive connection to the front door, with a body
// buffer it reuses so the generator allocates nothing per response.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: "http://" + addr, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request, reads the whole body, notes when the last byte
// arrived, and then checks the answer (outside the timed part). A nil
// expect accepts any non-fallback source. reason is "" when correct.
func (c *client) do(ctx context.Context, r request, ck *checker, expect map[string]bool) (lastByte time.Time, bodyBytes int, source, reason string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+r.path, nil)
	if err != nil {
		return time.Now(), 0, "", "bad request: " + err.Error()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return time.Now(), 0, "", "transport: " + err.Error()
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	lastByte = time.Now()
	_ = resp.Body.Close()
	if err != nil {
		return lastByte, c.buf.Len(), "", "body: " + err.Error()
	}
	source = resp.Header.Get(edge.HeaderSource)
	return lastByte, c.buf.Len(), source, ck.check(r, resp.StatusCode, resp.Header, c.buf.Bytes(), expect)
}

// checker is the correctness gate every response passes through.
type checker struct {
	w *workload

	mu   sync.Mutex
	seen map[[2]int]uint64 // (original, profile variant) -> first-seen distilled sum
}

func newChecker(w *workload) *checker {
	return &checker{w: w, seen: make(map[[2]int]uint64)}
}

// check returns "" for a correct answer, else a short reason: status
// 200, an expected X-TranSend-Source, not degraded, and the right
// bytes. A passthrough must equal the original. A distilled body must
// equal the first one seen for its original × profile variant, and
// that first one is validated: images decode and are no larger than
// their original, HTML carries the munger's toolbar. Validating once
// per variant rather than once per response keeps a second decoder's
// CPU out of the measured interval while still covering every byte,
// because every later answer is compared to a validated one.
func (ck *checker) check(r request, status int, hdr http.Header, body []byte, expect map[string]bool) string {
	if status != http.StatusOK {
		return fmt.Sprintf("status %d", status)
	}
	source := hdr.Get(edge.HeaderSource)
	if strings.HasPrefix(source, "fallback") || (expect != nil && !expect[source]) {
		return "source " + source
	}
	if hdr.Get(edge.HeaderDegraded) != "" {
		return "degraded"
	}
	sum := bodySum(body)
	if source == sourceOriginal {
		if sum != ck.w.bodyHash[r.body] {
			return "wrong bytes (passthrough differs from original)"
		}
		return ""
	}
	key := [2]int{r.body, r.variant}
	ck.mu.Lock()
	want, ok := ck.seen[key]
	ck.mu.Unlock()
	if ok {
		if sum != want {
			return "wrong bytes (differs from first-seen distilled body)"
		}
		return ""
	}
	orig := ck.w.bodies[r.body]
	switch orig.MIME {
	case media.MIMESJPG:
		if _, err := media.DecodeSJPG(body); err != nil {
			return "distilled sjpg does not decode"
		}
	case media.MIMESGIF:
		if _, err := media.DecodeSGIF(body); err != nil {
			return "distilled sgif does not decode"
		}
	case media.MIMEHTML:
		if !bytes.Contains(body, []byte("transend-toolbar")) {
			return "munged html lacks the toolbar"
		}
	}
	if orig.MIME != media.MIMEHTML && len(body) > len(orig.Data) {
		return "distilled body larger than its original"
	}
	ck.mu.Lock()
	ck.seen[key] = sum
	ck.mu.Unlock()
	return ""
}

// sample is one completed request.
type sample struct {
	End   time.Duration `json:"e"` // last body byte, offset from the interval's start
	Lat   time.Duration `json:"l"` // send (closed) or due time (open) -> last body byte
	Late  time.Duration `json:"d"` // open loop: actual send minus due time
	Bytes int           `json:"b"`
	OK    bool          `json:"k"`
}

// loadResult is everything one loaded interval produced. The generator
// process fills it and hands it to the benchmark process as JSON.
type loadResult struct {
	Dur       time.Duration   `json:"dur"`
	Samples   []sample        `json:"samples"` // sorted by End
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Reasons   map[string]int  `json:"reasons"`
	Sources   map[string]int  `json:"sources"`
	Used      int             `json:"used"`    // requests consumed from the stream
	GenCPU    []time.Duration `json:"gen_cpu"` // generator CPU at each window boundary (windows+1 marks)
	SysCPU    []time.Duration `json:"-"`       // the benchmark process's CPU at the same instants
	SysMemMB  []float64       `json:"-"`       // the benchmark process's memory footprint at each window's end
}

func (res *loadResult) merge(samples []sample, reasons, sources map[string]int) {
	res.Samples = append(res.Samples, samples...)
	for k, v := range reasons {
		res.Reasons[k] += v
	}
	for k, v := range sources {
		res.Sources[k] += v
	}
}

// windows is how many equal windows a measured interval is cut into;
// each timing/throughput metric is the median of its per-window values.
const windows = 10

// openSenders is the open loop's connection pool: large enough that an
// arrival never waits for a free connection at the calibrated rate, so
// arrivals stay independent of replies.
const openSenders = 64

// marks are readings of this process taken at the start of an interval
// and at each of its window boundaries.
type marks struct {
	cpu []time.Duration // CPU so far (windows+1 readings)
	mem []float64       // memory footprint in MB (windows readings)
}

func takeMarks(start time.Time, dur time.Duration) <-chan marks {
	out := make(chan marks, 1)
	go func() {
		m := marks{cpu: []time.Duration{cpuTime()}}
		for k := 1; k <= windows; k++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(k) / windows)))
			m.cpu = append(m.cpu, cpuTime())
			m.mem = append(m.mem, memFootprintMB())
		}
		out <- m
	}()
	return out
}

// runLoad drives the workload through the front door for dur, starting
// at request startIdx of its stream. started is told when the clock
// starts. It runs in the generator process.
func runLoad(ctx context.Context, addr string, w *workload, ck *checker, dur time.Duration, startIdx int, started func(time.Time)) *loadResult {
	res := &loadResult{Dur: dur, Reasons: map[string]int{}, Sources: map[string]int{}}
	var mu sync.Mutex // guards res.merge
	var wg sync.WaitGroup
	start := time.Now()
	started(start)
	marks := takeMarks(start, dur)

	worker := func(next func() (request, bool)) {
		defer wg.Done()
		cl := newClient(addr)
		defer cl.close()
		var samples []sample
		reasons, sources := map[string]int{}, map[string]int{}
		for {
			r, ok := next()
			if !ok {
				break
			}
			sent := time.Since(start)
			from := sent
			var late time.Duration
			if w.open {
				from, late = r.due, sent-r.due
			}
			last, n, source, reason := cl.do(ctx, r, ck, w.expect)
			end := last.Sub(start)
			samples = append(samples, sample{End: end, Lat: end - from, Late: late, Bytes: n, OK: reason == ""})
			sources[source]++
			if reason != "" {
				reasons[reason]++
			}
		}
		mu.Lock()
		res.merge(samples, reasons, sources)
		mu.Unlock()
	}

	var used atomic.Int64
	if !w.open {
		next := func() (request, bool) {
			if time.Since(start) >= dur {
				return request{}, false
			}
			return w.at(startIdx + int(used.Add(1)) - 1), true
		}
		for i := 0; i < w.clients; i++ {
			wg.Add(1)
			go worker(next)
		}
	} else {
		// Arrivals are handed to idle senders over a channel deep enough
		// that the dispatcher never blocks on a slow system: it keeps to
		// the schedule and the backlog shows up as latency from due time.
		due := make(chan request, 4096)
		next := func() (request, bool) { r, ok := <-due; return r, ok }
		for i := 0; i < openSenders; i++ {
			wg.Add(1)
			go worker(next)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(due)
			base := w.at(startIdx).due
			for i := startIdx; ; i++ {
				r := w.at(i)
				r.due -= base
				if r.due >= dur {
					return
				}
				// Go timers round sub-millisecond sleeps up to a
				// millisecond when the process is otherwise idle;
				// nanosleep keeps the schedule to tens of microseconds.
				if wait := r.due - time.Since(start); wait > 0 {
					ts := syscall.NsecToTimespec(int64(wait))
					_ = syscall.Nanosleep(&ts, nil)
				}
				used.Add(1)
				due <- r
				// The woken sender sits in this P's run queue, and a P
				// parked in nanosleep is only handed off when sysmon
				// next looks: yield so the sender runs now.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	res.GenCPU = (<-marks).cpu
	res.Used = int(used.Load())
	res.Attempted = len(res.Samples)
	for _, s := range res.Samples {
		if !s.OK {
			res.Failed++
		}
	}
	sort.Slice(res.Samples, func(i, j int) bool { return res.Samples[i].End < res.Samples[j].End })
	return res
}

// windowed cuts the interval into equal windows by completion time and
// returns each metric's per-window values. Only correct responses
// count; a response that lands after the interval's end is in the
// totals but in no window. CPU per request is given apart for the
// benchmark process (the system under test) and the generator process.
func (res *loadResult) windowed() (reqPerS, p50us, mbPerS, sysCPUPerReq, genCPUPerReq []float64) {
	win := res.Dur / windows
	lats := make([][]float64, windows)
	byts := make([]float64, windows)
	for _, s := range res.Samples {
		k := int(s.End / win)
		if !s.OK || k >= windows {
			continue
		}
		lats[k] = append(lats[k], us(s.Lat))
		byts[k] += float64(s.Bytes)
	}
	for k := 0; k < windows; k++ {
		n := float64(len(lats[k]))
		sort.Float64s(lats[k])
		reqPerS = append(reqPerS, n/win.Seconds())
		p50us = append(p50us, percentile(lats[k], 0.5))
		mbPerS = append(mbPerS, byts[k]/1e6/win.Seconds())
		sysCPUPerReq = append(sysCPUPerReq, ratio(us(res.SysCPU[k+1]-res.SysCPU[k]), n))
		genCPUPerReq = append(genCPUPerReq, ratio(us(res.GenCPU[k+1]-res.GenCPU[k]), n))
	}
	return reqPerS, p50us, mbPerS, sysCPUPerReq, genCPUPerReq
}

// p99Windowed is the 99th percentile per window, over windows of at
// least 1000 samples each so that ten or more samples lie beyond it:
// the interval is cut into as many equal-count windows (at most
// `windows`, at least one) as that allows.
func (res *loadResult) p99Windowed() []float64 {
	var lats []float64
	for _, s := range res.Samples {
		if s.OK {
			lats = append(lats, us(s.Lat))
		}
	}
	n := len(lats) / 1000
	if n > windows {
		n = windows
	}
	if n < 1 {
		n = 1
	}
	var out []float64
	for k := 0; k < n; k++ {
		part := sortedCopy(lats[k*len(lats)/n : (k+1)*len(lats)/n])
		out = append(out, percentile(part, 0.99))
	}
	return out
}

// lateP99us is the open loop's generator lateness (actual send minus
// due time), 99th percentile over the interval.
func (res *loadResult) lateP99us() float64 {
	var late []float64
	for _, s := range res.Samples {
		late = append(late, us(s.Late))
	}
	sort.Float64s(late)
	return percentile(late, 0.99)
}
