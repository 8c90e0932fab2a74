# Development entry points. `make check` is the full verification gate
# (build + vet + race-enabled tests); CI and pre-commit should run it.

GO ?= go

.PHONY: check build test bench bench-mem telemetry-smoke trace-smoke io-smoke query-smoke profile

check:
	sh scripts/check.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Memory gate: fails if the per-respondent sampling, calibration, or
# grading inner loops allocate (the Test*ZeroAlloc tests assert the
# contracts via testing.AllocsPerRun), then prints the allocation
# profile of the per-stage hot-path benchmarks. CHECK_BENCH_MEM=1
# make check runs this as part of the full gate.
bench-mem:
	$(GO) test -run 'ZeroAlloc' -v ./internal/respondent/ ./internal/quiz/
	$(GO) test -run - -bench 'BenchmarkSampleBlock|BenchmarkGradeColumns|BenchmarkCalibrateModels|BenchmarkSampleResponses' \
		-benchmem ./internal/respondent/ ./internal/quiz/

# End-to-end check of the live-introspection surface: runs fpgen with
# -telemetry and asserts /debug/vars serves live fpstudy metrics.
telemetry-smoke:
	$(GO) run scripts/telemetry_smoke.go

# End-to-end check of the tracing surface: generates n=199 with -trace
# and validates the Chrome trace-event JSON (parses, contains all four
# pipeline stages and per-worker lanes).
trace-smoke:
	$(GO) run scripts/trace_smoke.go

# End-to-end check of the dataset file formats: fpgen writes an
# n=10000 cohort as FPDS binary and as row JSON, and `fpreport -data`
# off each file must reproduce the in-process report byte for byte.
# CHECK_IO_SMOKE=1 make check runs this as part of the full gate.
io-smoke:
	$(GO) run scripts/io_smoke.go

# End-to-end check of the ad-hoc query surface: fpgen writes an
# n=10000 cohort in both file formats, and the same expressions must
# print byte-identical tables through `fpreport -query` (in-process,
# loaded JSON, streamed .fpds) and `fpsurvey slice` (both formats).
# CHECK_QUERY_SMOKE=1 make check runs this as part of the full gate.
query-smoke:
	$(GO) run scripts/query_smoke.go

# One-command profiling session: times the n=1M pipeline (generation
# and grading, workers=GOMAXPROCS) once under the Go benchmark harness
# and drops every artifact under profiles/ — a CPU profile and a heap
# profile (go tool pprof) with the test binary they resolve against,
# plus a Chrome trace-event file of an fpgen run at the same size (load
# in https://ui.perfetto.dev or chrome://tracing; see README "Tracing
# the pipeline"). For before/after timings use scripts/bench_ab.sh.
profile:
	mkdir -p profiles
	FPSTUDY_BENCH_LARGE=1 $(GO) test -run '^$$' -bench '^BenchmarkStudyPipeline$$/^n=1000000$$/^workers=0$$' \
		-benchtime 1x -cpuprofile profiles/cpu.pprof -memprofile profiles/heap.pprof \
		-o profiles/fpstudy.test .
	$(GO) run ./cmd/fpgen -n 1000000 -trace profiles/pipeline.trace.json -o profiles/x.fpds
	@echo "profile artifacts in profiles/: inspect with"
	@echo "  go tool pprof -top profiles/fpstudy.test profiles/cpu.pprof"
	@echo "  go tool pprof -top profiles/fpstudy.test profiles/heap.pprof"
	@echo "  perfetto/chrome://tracing <- profiles/pipeline.trace.json"
