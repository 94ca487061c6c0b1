package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestManifestRoundTrip: build, finish, write and re-read a manifest;
// the loaded copy validates and carries the counters through.
func TestManifestRoundTrip(t *testing.T) {
	r := NewRun(Options{})
	r.Add(RefsRead, 42)
	r.Add(PointsCompleted, 19)

	m := NewManifest("experiments", Fingerprint("refs=1000", "nets=[64]"))
	m.Interrupted = true
	m.Finish(time.Now().Add(-time.Second), r)

	path := filepath.Join(t.TempDir(), "out", "RUN.json")
	if err := m.Write(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Tool != "experiments" || !got.Interrupted {
		t.Errorf("run description mangled: %+v", got)
	}
	if got.Fingerprint != m.Fingerprint {
		t.Errorf("fingerprint %q != %q", got.Fingerprint, m.Fingerprint)
	}
	if got.WallSeconds < 0.9 {
		t.Errorf("wall_seconds = %v, want >= ~1", got.WallSeconds)
	}
	if got.Telemetry == nil || got.Telemetry.Counter(RefsRead) != 42 {
		t.Errorf("telemetry snapshot lost: %+v", got.Telemetry)
	}

	// Finish with a nil recorder still produces a valid (empty) snapshot.
	m2 := NewManifest("traceinfo", Fingerprint("tool=traceinfo"))
	m2.Finish(time.Now(), nil)
	if err := m2.Validate(); err != nil {
		t.Errorf("nil-recorder manifest invalid: %v", err)
	}
}

// TestManifestValidateRejects: each required field is enforced.
func TestManifestValidateRejects(t *testing.T) {
	valid := func() *Manifest {
		m := NewManifest("tool", "abcd1234abcd1234")
		m.Finish(time.Now(), nil)
		return m
	}
	cases := []struct {
		name   string
		break_ func(*Manifest)
		want   string
	}{
		{"bad version", func(m *Manifest) { m.V = 2 }, "version"},
		{"missing tool", func(m *Manifest) { m.Tool = "" }, "tool"},
		{"missing fingerprint", func(m *Manifest) { m.Fingerprint = "" }, "fingerprint"},
		{"missing machine", func(m *Manifest) { m.NumCPU = 0 }, "machine"},
		{"negative wall", func(m *Manifest) { m.WallSeconds = -1 }, "wall"},
		{"nil telemetry", func(m *Manifest) { m.Telemetry = nil }, "snapshot"},
	}
	for _, tc := range cases {
		m := valid()
		tc.break_(m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// ReadManifest surfaces validation failures with the path.
	path := filepath.Join(t.TempDir(), "RUN.json")
	if err := os.WriteFile(path, []byte(`{"v":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err == nil {
		t.Error("ReadManifest accepted an invalid manifest")
	}
}

// TestFingerprint: deterministic, sensitive to content and to part
// boundaries (the length prefix prevents ["ab"] == ["a","b"]).
func TestFingerprint(t *testing.T) {
	a := Fingerprint("refs=1000", "nets=[64]")
	if a != Fingerprint("refs=1000", "nets=[64]") {
		t.Error("fingerprint not deterministic")
	}
	if len(a) != 16 {
		t.Errorf("fingerprint length %d, want 16", len(a))
	}
	if a == Fingerprint("refs=1001", "nets=[64]") {
		t.Error("fingerprint insensitive to content")
	}
	if Fingerprint("ab") == Fingerprint("a", "b") {
		t.Error("fingerprint insensitive to part boundaries")
	}
}

// TestWriteFileAtomic: creates parent directories, replaces existing
// content completely, and leaves no temp files behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "out.json")
	if err := WriteFileAtomic(path, []byte("first"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := WriteFileAtomic(path, []byte("second"), 0o644); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "second" {
		t.Fatalf("content = %q, err %v; want \"second\"", b, err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "sub"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("directory has %d entries, want 1 (temp file left behind?)", len(ents))
	}
}
