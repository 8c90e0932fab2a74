// Command perfbench is the repository benchmark: it drives the
// fpgen → .fpds → fpreport pipeline in process through the public calls
// of each layer, times every layer from outside, and checks every
// output against a reference built by a different route.
//
//	bash perfbench/run.sh --workload report-1m --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh compare old.jsonl new.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Each run also
// appends its record, stamped with a host fingerprint, to
// .bench_build/perfbench/results.jsonl, and a traced run writes its
// spans to .bench_build/perfbench/trace-<workload>-<seed>.jsonl.
// RATIONALE.md says why each workload exists and which layer metric
// should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind, relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// minPasses is the fewest timed passes a section makes, however short
// --seconds is, so that wall_s is a median of at least three.
const minPasses = 3

// workload is one benchmark workload: inputs built in setup, a pass of
// requests timed in the measured section, and output checks that stay
// outside both.
type workload interface {
	// setup builds the workload's inputs. It is timed as setup_s and
	// must be repeatable.
	setup(b *bench) error
	// prepare builds the references the output checks compare against.
	prepare(b *bench) error
	// pass issues one pass of requests through b.t.
	pass(b *bench) error
	// check verifies the outputs of the pass just run and returns how
	// many comparisons it made and a description of each mismatch.
	check(b *bench) (int, []string)
	// finish runs the checks that need every pass to have ended.
	finish(b *bench) (int, []string)
	// respondents is the number of respondents one pass handles.
	respondents() int
}

// bench is the state one run shares with its workload.
type bench struct {
	seed    int64
	workers int
	dir     string // scratch directory of this run
	t       *tracer
}

var workloads = map[string]func() workload{
	"generate-1m":    func() workload { return &generateWL{n: 1_000_000} },
	"report-1m":      func() workload { return &reportWL{n: 1_000_000} },
	"slice-1m":       func() workload { return &sliceWL{n: 1_000_000} },
	"paper-ensemble": func() workload { return &ensembleWL{seeds: 200} },
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run, appended to results.jsonl.
type record struct {
	Time     string             `json:"time"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Host     fingerprint        `json:"host"`
	Samples  map[string]int     `json:"samples"`
	Walls    []float64          `json:"pass_walls_s"`
	CPU      []float64          `json:"pass_cpu_s"`   // process user+sys time per pass
	Steal    []float64          `json:"pass_steal_s"` // host steal time per pass, all CPUs
	Setups   []float64          `json:"setups_s"`
	Failures []string           `json:"failures,omitempty"`
	Result   result             `json:"result"`
	Shares   map[string]float64 `json:"self_time_share,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: generate-1m, report-1m, slice-1m or paper-ensemble")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of each measured section in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	rec, err := run(*name, mk(), *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

func run(name string, w workload, seed int64, seconds int, trace bool) (*record, error) {
	host := hostFingerprint()
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d on %s\n", name, seed, host)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{seed: seed, workers: runtime.GOMAXPROCS(0), dir: dir, t: newTracer()}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := w.setup(b); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := w.prepare(b); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	var failures []string
	checks := 0
	var cpus, steals []float64
	// measure runs timed passes until --seconds have been measured and
	// returns each pass's wall time. It also keeps each pass's CPU and
	// steal time, so a record shows whether a slow pass was short of CPU.
	// Every pass starts on a collected heap, so that no pass pays for
	// the garbage of the one before.
	measure := func() ([]float64, error) {
		b.t.latencies, b.t.peaks = nil, nil
		b.t.heap = startHeapSampler()
		defer func() {
			b.t.heap.stop()
			b.t.heap = nil
		}()
		var walls []float64
		total := 0.0
		for total < float64(seconds) || len(walls) < minPasses {
			runtime.GC()
			b.t.pass++
			before := readClocks()
			start := time.Now()
			err := w.pass(b)
			wall := time.Since(start).Seconds()
			after := readClocks()
			if err != nil {
				return nil, err
			}
			walls = append(walls, wall)
			cpus = append(cpus, after.cpu-before.cpu)
			steals = append(steals, after.steal-before.steal)
			total += wall
			n, bad := w.check(b)
			checks += n
			failures = append(failures, bad...)
		}
		return walls, nil
	}
	walls, err := measure()
	if err != nil {
		return nil, err
	}
	latencies, peaks := b.t.latencies, b.t.peaks

	rec := &record{
		Time: time.Now().UTC().Format(time.RFC3339), Workload: name, Seed: seed,
		Seconds: seconds, Trace: trace, Host: host,
		Samples: map[string]int{"setups": len(setups), "passes": len(walls), "requests": len(latencies)},
		Walls:   walls, CPU: cpus, Steal: steals, Setups: setups,
	}
	var ms map[string]metric
	if trace {
		b.t.on = true
		first := b.t.pass + 1
		tw, err := measure()
		if err != nil {
			return nil, err
		}
		ms, rec.Shares = layerMetrics(b.t, first, tw, walls)
		rec.Samples["traced_passes"] = len(tw)
		rec.Samples["spans"] = len(b.t.spans)
		if cov := ms["trace.coverage"].Value; cov < 0.95 {
			failures = append(failures, fmt.Sprintf("layer spans cover %.3f of the traced wall time, want >= 0.95", cov))
		}
		checks++
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.jsonl", name, seed))
		if err := b.t.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.t.spans), path)
	} else {
		wall := median(walls)
		ms = map[string]metric{
			"setup_s":           {median(setups), "s"},
			"wall_s":            {wall, "s"},
			"respondents_per_s": {float64(w.respondents()) / wall, "1/s"},
			"request_p50_ms":    {quantile(latencyMs(latencies), 0.5), "ms"},
			"request_p90_ms":    {quantile(latencyMs(latencies), 0.9), "ms"},
			"peak_heap_mb":      {median(peaks) / (1 << 20), "MB"},
		}
	}
	n, bad := w.finish(b)
	checks += n
	failures = append(failures, bad...)

	attempted := b.t.nreq + checks
	rec.Failures = failures
	rec.Result = result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures), Metrics: ms}
	printReport(rec)
	if err := appendRecord(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// printReport prints the run's metrics by name with their units, its sample
// counts and any failed check to standard error.
func printReport(rec *record) {
	names := make([]string, 0, len(rec.Result.Metrics))
	for k := range rec.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Result.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "perfbench: samples %v; %d attempted, %d failed\n",
		rec.Samples, rec.Result.Attempted, rec.Result.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", f)
	}
}

func appendRecord(rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "results.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapSampler polls the heap every millisecond and keeps the highest
// size seen since the last reset.
type heapSampler struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
	s    []metrics.Sample // for reset and take; the poller has its own
}

func heapSample() []metrics.Sample {
	return []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{}), s: heapSample()}
	go func() {
		defer close(h.done)
		s := heapSample()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.observe(s[0].Value.Uint64())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
	}
}

// reset starts a new interval at the current heap size.
func (h *heapSampler) reset() {
	metrics.Read(h.s)
	h.peak.Store(h.s[0].Value.Uint64())
}

// take returns the highest heap size in bytes since the last reset.
func (h *heapSampler) take() float64 {
	metrics.Read(h.s)
	h.observe(h.s[0].Value.Uint64())
	return float64(h.peak.Load())
}

// stop ends the sampler and waits for it to exit.
func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}

// clocks are the process's CPU time and the host's steal time, both in
// seconds since boot or process start.
type clocks struct{ cpu, steal float64 }

func readClocks() clocks {
	var c clocks
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	// The first line of /proc/stat sums all CPUs; steal is its eighth
	// number, in ticks of 1/100 s.
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
			if v, err := strconv.ParseFloat(f[8], 64); err == nil {
				c.steal = v / 100
			}
		}
	}
	return c
}

// fingerprint identifies the host a result came from; results from
// different fingerprints are not comparable.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %q", f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.CPUModel)
}

func hostFingerprint() fingerprint {
	fp := fingerprint{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown"}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return fp
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			fp.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return fp
}

func latencyMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
