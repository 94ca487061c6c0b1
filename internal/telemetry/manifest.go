package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// ManifestVersion is the RUN.json schema version.
const ManifestVersion = 1

// Manifest is a run manifest (RUN.json): one self-describing record of
// what a command ran, on what, for how long, and what the pipeline
// counted.  It is the durable complement of the event stream -- small
// enough to commit or attach to a CI artifact, and stable enough to
// diff across runs.
type Manifest struct {
	// V is the manifest schema version (ManifestVersion).
	V int `json:"v"`
	// Tool names the command that ran ("experiments", "sweepd", ...).
	Tool string `json:"tool"`
	// Fingerprint is a short hash of the run's effective configuration
	// (see Fingerprint); runs with equal fingerprints simulated the
	// same thing.
	Fingerprint string `json:"config_fingerprint"`
	// BuildVersion is the link-time version stamp (telemetry.Version);
	// "dev" for unstamped builds.
	BuildVersion string `json:"build_version,omitempty"`
	// GoVersion, GOOS, GOARCH and NumCPU describe the machine.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// WallSeconds and CPUSeconds are the run's elapsed wall clock and
	// consumed process CPU time (user + system, all cores summed;
	// 0 where the platform cannot report it).
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	// Interrupted marks a run cut short by SIGINT/SIGTERM or a drain:
	// the manifest and counters describe the partial run that actually
	// happened, not the one that was requested.
	Interrupted bool `json:"interrupted,omitempty"`
	// EventsFile points at the JSONL event stream, when one was written.
	EventsFile string `json:"events_file,omitempty"`
	// Telemetry is the final counter snapshot.
	Telemetry *Snapshot `json:"telemetry"`
}

// Validate checks the manifest's schema.
func (m *Manifest) Validate() error {
	switch {
	case m.V != ManifestVersion:
		return fmt.Errorf("telemetry: manifest version %d, want %d", m.V, ManifestVersion)
	case m.Tool == "":
		return fmt.Errorf("telemetry: manifest missing tool")
	case m.Fingerprint == "":
		return fmt.Errorf("telemetry: manifest missing config_fingerprint")
	case m.GoVersion == "" || m.GOOS == "" || m.GOARCH == "" || m.NumCPU <= 0:
		return fmt.Errorf("telemetry: manifest missing machine description")
	case m.WallSeconds < 0 || m.CPUSeconds < 0:
		return fmt.Errorf("telemetry: manifest negative wall/cpu time")
	case m.Telemetry == nil:
		return fmt.Errorf("telemetry: manifest missing telemetry snapshot")
	}
	return nil
}

// NewManifest starts a manifest with the machine description filled
// in; the caller sets the run description and calls Finish.
func NewManifest(tool, fingerprint string) *Manifest {
	return &Manifest{
		V:            ManifestVersion,
		Tool:         tool,
		Fingerprint:  fingerprint,
		BuildVersion: Version,
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
	}
}

// Finish stamps the timing and final counters: wall time from the
// given start, CPU time from the OS, telemetry from the recorder.
func (m *Manifest) Finish(start time.Time, rec *Run) {
	m.WallSeconds = time.Since(start).Seconds()
	m.CPUSeconds = processCPUSeconds()
	if rec != nil {
		m.Telemetry = rec.Snapshot()
	} else {
		m.Telemetry = &Snapshot{Counters: map[string]uint64{}}
	}
}

// Write atomically writes the manifest: marshal, write a temp file in
// the destination directory, rename into place -- so a crashed run
// never leaves a torn RUN.json.
func (m *Manifest) Write(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: manifest: %w", err)
	}
	return WriteFileAtomic(path, append(b, '\n'), 0o644)
}

// ReadManifest loads and validates a RUN.json.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("telemetry: manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// Fingerprint hashes the parts of a run's configuration that determine
// its results into a short stable id.  Callers pass whatever defines
// the run (flag values, grid description); equal inputs give equal
// fingerprints across machines and Go versions.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s\n", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// WriteFileAtomic writes data to path via a temp file, fsync and
// rename, the same pattern WriteTraceFile uses: the destination is
// either the old content or the complete new content, never a torn
// partial write.  The fsync before the rename keeps that true across
// power loss, not just process crashes.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
