package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a pipeline layer, or one request (the
// root of the calls it made). Times are nanoseconds since the tracer
// started. Alloc, GCs and PauseNs are runtime.MemStats deltas over the
// call; Work holds layer-specific counts (bytes written, rows scanned).
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // 0 for a request root
	Request int              `json:"request"`
	Pass    int              `json:"pass"`
	Name    string           `json:"name"`
	Start   int64            `json:"start_ns"`
	End     int64            `json:"end_ns"`
	Alloc   uint64           `json:"alloc_bytes,omitempty"`
	GCs     uint32           `json:"gc_count,omitempty"`
	PauseNs uint64           `json:"gc_pause_ns,omitempty"`
	Work    map[string]int64 `json:"work,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer times requests and, when on, records one span per layer call.
// A single client goroutine issues every request (a closed loop), so the
// tracer needs no locking. Spans stay in memory until write.
type tracer struct {
	on      bool
	epoch   time.Time
	spans   []span
	pass    int
	request int // id of the open request span, 0 outside one
	nreq    int

	// latencies holds every request's wall time, traced or not, and
	// peaks the highest heap size seen during each request when heap is
	// set.
	latencies []time.Duration
	peaks     []float64
	heap      *heapSampler
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// do issues one request: fn runs inside a root span when tracing is on,
// and its wall time and peak heap join the samples.
func (t *tracer) do(fn func() error) error {
	t.nreq++
	if t.heap != nil {
		t.heap.reset()
	}
	start := time.Now()
	if t.on {
		t.request = t.open(0, "request")
	}
	err := fn()
	if t.on {
		t.close(t.request, nil, nil)
		t.request = 0
	}
	t.latencies = append(t.latencies, time.Since(start))
	if t.heap != nil {
		t.peaks = append(t.peaks, t.heap.take())
	}
	return err
}

// call runs one public call of a layer under a span named layer.call.
// The MemStats reads happen inside the span, so a traced run's layer
// spans also account for their own measurement cost.
func (t *tracer) call(name string, fn func() error) error {
	_, err := t.callWork(name, func(map[string]int64) error { return fn() })
	return err
}

// callWork is call for layers that report work counts: fn fills work
// (nil when tracing is off) and the counts are stored on the span. It
// returns the span id (0 when tracing is off).
func (t *tracer) callWork(name string, fn func(work map[string]int64) error) (int, error) {
	if !t.on {
		return 0, fn(nil)
	}
	id := t.open(t.request, name)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	work := map[string]int64{}
	err := fn(work)
	if len(work) == 0 {
		work = nil
	}
	t.close(id, work, &before)
	return id, err
}

// child records a finished sub-span of span parent whose duration was
// measured by the program itself (the respondent stage spans). The
// program reports durations only, so children are laid end to end from
// the parent's start, in call order.
func (t *tracer) child(parent int, name string, at, dur int64) {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: t.request, Pass: t.pass,
		Name: name, Start: at, End: at + dur,
	})
}

func (t *tracer) open(parent int, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: t.request, Pass: t.pass,
		Name: name, Start: t.now(),
	})
	id := len(t.spans)
	if parent == 0 {
		t.spans[id-1].Request = id
	}
	return id
}

func (t *tracer) close(id int, work map[string]int64, before *runtime.MemStats) {
	s := &t.spans[id-1]
	if before != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.Alloc = after.TotalAlloc - before.TotalAlloc
		s.GCs = after.NumGC - before.NumGC
		s.PauseNs = after.PauseTotalNs - before.PauseTotalNs
		s.Work = work
	}
	s.End = t.now()
}

// spanStart returns the start of span id.
func (t *tracer) spanStart(id int) int64 { return t.spans[id-1].Start }

// selfTimes returns each span name's total self time in seconds: a
// span's duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	childNs := make([]int64, len(t.spans)+1)
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			childNs[p] += t.spans[i].dur()
		}
	}
	out := map[string]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		out[s.Name] += float64(s.dur()-childNs[s.ID]) / 1e9
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
