package main

import "fmt"

// Span names, one per public call the benchmark times. A per-layer time
// metric is its span name with "_s" appended.
var timedSpans = func() []string {
	names := []string{
		"respondent.generate_main", "respondent.generate_students",
		"respondent.draw_profiles", "respondent.calibrate", "respondent.sample",
		"colstore.encode", "colstore.load", "colstore.open_shard",
		"core.results", "core.claims", "core.run",
		"core.calibration", "core.association", "core.items", "core.confidence", "core.intervention",
		"query.parse", "query.run", "report.render",
	}
	for i := 1; i <= 22; i++ {
		names = append(names, figureSpan(i))
	}
	return names
}()

func figureSpan(i int) string { return fmt.Sprintf("core.figure_%02d", i) }

// allocMetrics maps each allocation metric to the spans whose allocated
// bytes it sums.
var allocMetrics = map[string][]string{
	"respondent.generate_main_alloc_mb": {"respondent.generate_main"},
	"colstore.encode_alloc_mb":          {"colstore.encode"},
	"colstore.load_alloc_mb":            {"colstore.load"},
	"core.results_alloc_mb":             {"core.results"},
	"core.figures_alloc_mb":             timedSpans[len(timedSpans)-22:],
	"core.claims_alloc_mb":              {"core.claims"},
	"core.analyses_alloc_mb": {"core.calibration", "core.association", "core.items",
		"core.confidence", "core.intervention"},
}

// workMetrics are counts the layer calls record on their spans: each
// metric names the span and the work key it sums, and its unit.
var workMetrics = map[string][3]string{
	"colstore.encode_bytes": {"colstore.encode", "bytes", "bytes"},
	"colstore.load_bytes":   {"colstore.load", "bytes", "bytes"},
	"query.rows_scanned":    {"query.run", "rows_scanned", "count"},
	"query.blocks_skipped":  {"query.run", "blocks_skipped", "count"},
	"report.bytes_out":      {"report.render", "bytes", "bytes"},
}

// passAgg sums one traced pass's spans.
type passAgg struct {
	ns      map[string]int64
	alloc   map[string]uint64
	work    map[string]int64 // "<span>/<key>"
	gcs     int64
	pauseNs uint64
	layerNs int64 // spans directly under a request
}

// layerMetrics turns the spans of the traced passes (numbered from
// first) into the per-layer metrics: each is the median over traced
// passes of its per-pass total. It also returns each span name's self
// time as a share of the traced wall time.
func layerMetrics(t *tracer, first int, traced, untraced []float64) (map[string]metric, map[string]float64) {
	aggs := make([]*passAgg, len(traced))
	for i := range aggs {
		aggs[i] = &passAgg{ns: map[string]int64{}, alloc: map[string]uint64{}, work: map[string]int64{}}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Pass < first || s.Parent == 0 {
			continue
		}
		a := aggs[s.Pass-first]
		a.ns[s.Name] += s.dur()
		a.alloc[s.Name] += s.Alloc
		for k, v := range s.Work {
			a.work[s.Name+"/"+k] += v
		}
		if t.spans[s.Parent-1].Parent == 0 {
			a.layerNs += s.dur()
			a.gcs += int64(s.GCs)
			a.pauseNs += s.PauseNs
		}
	}
	perPass := func(f func(a *passAgg) float64) float64 {
		xs := make([]float64, len(aggs))
		for i, a := range aggs {
			xs[i] = f(a)
		}
		return median(xs)
	}

	out := map[string]metric{}
	for _, name := range timedSpans {
		out[name+"_s"] = metric{perPass(func(a *passAgg) float64 { return float64(a.ns[name]) / 1e9 }), "s"}
	}
	for m, spans := range allocMetrics {
		out[m] = metric{perPass(func(a *passAgg) float64 {
			var sum uint64
			for _, s := range spans {
				sum += a.alloc[s]
			}
			return float64(sum) / (1 << 20)
		}), "MB"}
	}
	for m, w := range workMetrics {
		k := w[0] + "/" + w[1]
		out[m] = metric{perPass(func(a *passAgg) float64 { return float64(a.work[k]) }), w[2]}
	}
	out["runtime.gc_count"] = metric{perPass(func(a *passAgg) float64 { return float64(a.gcs) }), "count"}
	out["runtime.gc_pause_ms"] = metric{perPass(func(a *passAgg) float64 { return float64(a.pauseNs) / 1e6 }), "ms"}

	var layerNs int64
	for _, a := range aggs {
		layerNs += a.layerNs
	}
	wall := 0.0
	for _, w := range traced {
		wall += w
	}
	out["trace.coverage"] = metric{float64(layerNs) / 1e9 / wall, "ratio"}
	out["trace.overhead_s"] = metric{median(traced) - median(untraced), "s"}

	shares := map[string]float64{}
	for name, self := range t.selfTimes() {
		shares[name] = self / wall
	}
	return out, shares
}
