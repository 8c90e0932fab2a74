package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// TestRegistryConcurrent is the race-detector contract of the registry:
// 8 writer goroutines hammer the same counter, gauge, and histogram
// (looked up by name per iteration, so map access races are exercised
// too) while a reader goroutine takes snapshots throughout. Run under
// `go test -race` (scripts/check.sh does).
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const (
		writers = 8
		perG    = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Snapshot reader runs until the writers finish.
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := reg.Snapshot()
			if c, ok := s.Counters["c"]; ok && c < 0 {
				t.Error("counter went negative")
				return
			}
			if _, err := json.Marshal(s); err != nil {
				t.Errorf("snapshot not marshalable: %v", err)
				return
			}
		}
	}()

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				reg.Counter("c").Inc()
				reg.Counter("c2").Add(2)
				reg.Gauge("g").Set(float64(g))
				reg.Histogram("h", []float64{1, 10, 100}).Observe(float64(i % 200))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := reg.Counter("c").Value(); got != writers*perG {
		t.Errorf("counter c = %d, want %d", got, writers*perG)
	}
	if got := reg.Counter("c2").Value(); got != 2*writers*perG {
		t.Errorf("counter c2 = %d, want %d", got, 2*writers*perG)
	}
	h := reg.Histogram("h", nil)
	if got := h.Count(); got != writers*perG {
		t.Errorf("histogram count = %d, want %d", got, writers*perG)
	}
	snap := h.Snapshot()
	var bucketTotal int64
	for _, b := range snap.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != writers*perG {
		t.Errorf("bucket total = %d, want %d", bucketTotal, writers*perG)
	}
	if snap.Buckets[len(snap.Buckets)-1].UpperBound != "+Inf" {
		t.Errorf("last bucket bound = %q, want +Inf", snap.Buckets[len(snap.Buckets)-1].UpperBound)
	}
}

// TestHistogramSnapshotConsistent is the torn-total regression test:
// under concurrent writers, every snapshot's buckets must sum exactly
// to its Count. (Before the fix, Count was read from the separate
// total before the buckets, so a snapshot could report fewer — or
// more — observations than its buckets held.)
func TestHistogramSnapshotConsistent(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	const writers, perG = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			var sum int64
			for _, b := range s.Buckets {
				sum += b.Count
			}
			if sum != s.Count {
				t.Errorf("torn snapshot: buckets sum %d != count %d", sum, s.Count)
				return
			}
		}
	}()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(i % 200))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if s := h.Snapshot(); s.Count != writers*perG {
		t.Errorf("final count = %d, want %d", s.Count, writers*perG)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 100, 1000} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	// Bucket semantics: value v lands in the first bucket with bound >= v.
	want := []int64{2, 2, 2, 1} // {0.5,1}, {5,10}, {50,100}, {1000}
	for i, b := range snap.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %d (le %s) = %d, want %d", i, b.UpperBound, b.Count, want[i])
		}
	}
	if snap.Count != 7 {
		t.Errorf("count = %d, want 7", snap.Count)
	}
	if math.Abs(snap.Sum-1166.5) > 1e-9 {
		t.Errorf("sum = %g, want 1166.5", snap.Sum)
	}
}

// TestNilSafety pins the package's core ergonomic promise: every handle
// works (as a no-op) when nil, so instrumentation points never branch.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	var rec *Recorder
	var sp *Span
	var c *Counter
	var g *Gauge
	var h *Histogram

	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has nonzero value")
	}
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge has nonzero value")
	}
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram recorded something")
	}
	_ = h.Snapshot()

	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Histogram("x", nil) != nil {
		t.Error("nil registry returned non-nil metric")
	}
	_ = reg.Snapshot()
	reg.PublishExpvar("nil-reg")

	if rec.StartSpan("x") != nil {
		t.Error("nil recorder returned non-nil span")
	}
	if rec.Registry() != nil {
		t.Error("nil recorder returned non-nil registry")
	}
	if rec.Spans() != nil {
		t.Error("nil recorder returned spans")
	}
	rec.PublishExpvar("nil-rec")

	sp.AddItems(10)
	sp.End()
	if sp.StartChild("x") != nil {
		t.Error("nil span returned non-nil child")
	}
	if sp.Items() != 0 {
		t.Error("nil span has items")
	}
	_ = sp.Snapshot()

	var srv *Server
	if srv.Addr() != "" {
		t.Error("nil server has address")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("nil server close: %v", err)
	}
}

func TestRegistryIdempotentLookup(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("same counter name returned different counters")
	}
	if reg.Gauge("a") != reg.Gauge("a") {
		t.Error("same gauge name returned different gauges")
	}
	if reg.Histogram("a", []float64{1}) != reg.Histogram("a", []float64{2}) {
		t.Error("same histogram name returned different histograms")
	}
}
