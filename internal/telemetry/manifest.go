package telemetry

import (
	"encoding/json"
	"os"
	"runtime"
)

// Manifest is the run-manifest document written next to each pipeline
// output: enough to reconstruct what produced the artifact (seed,
// workers, scale) and how the run behaved (span tree, metric
// snapshot). The manifest is diagnostic metadata only — it is written
// after the output is complete and never feeds back into generation,
// so it cannot perturb determinism.
type Manifest struct {
	Tool      string `json:"tool"`
	Timestamp string `json:"timestamp,omitempty"` // RFC3339, caller-supplied
	Seed      int64  `json:"seed"`
	N         int    `json:"n,omitempty"`
	Workers   int    `json:"workers,omitempty"` // 0 = GOMAXPROCS (or varies; see spans)

	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// SerialHost tags runs taken with GOMAXPROCS==1, matching the
	// run-ledger host fingerprint (runlog.Host) so manifests and ledger
	// records agree on provenance (parallel numbers from such a host
	// are not comparable to multi-core ones).
	SerialHost bool `json:"serial_host,omitempty"`

	Spans   []SpanSnapshot `json:"spans,omitempty"`
	Metrics Snapshot       `json:"metrics"`
}

// Manifest assembles a manifest from the recorder's current spans and
// metrics plus the host facts. Works on the nil Recorder (empty spans
// and metrics).
func (r *Recorder) Manifest(tool string, seed int64, n, workers int) Manifest {
	return Manifest{
		Tool:       tool,
		Seed:       seed,
		N:          n,
		Workers:    workers,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		SerialHost: runtime.GOMAXPROCS(0) == 1,
		Spans:      r.Spans(),
		Metrics:    r.Registry().Snapshot(),
	}
}

// WriteManifest writes the manifest as indented JSON to path.
func WriteManifest(path string, m Manifest) error {
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// ManifestPath is the conventional manifest location for an output
// file: "<out>.manifest.json".
func ManifestPath(out string) string { return out + ".manifest.json" }
