package service

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestStorePutGetRoundTrip: a payload put in any valid JSON form --
// spaced, with a trailing newline, with characters json.Marshal
// HTML-escapes -- reads back as a verified hit carrying the form the
// envelope stores, from memory and, after a restart, from disk; and an
// entry written as earlier versions wrote it (compact json.Marshal
// output checksummed as given) still verifies.
func TestStorePutGetRoundTrip(t *testing.T) {
	cases := []struct{ name, payload, stored string }{
		{"spaced", `{"a": 1}`, `{"a":1}`},
		{"trailing newline", "{\"a\":1}\n", `{"a":1}`},
		{"html", `{"s":"<b>"}`, `{"s":"\u003cb\u003e"}`},
	}
	dir := t.TempDir()
	st, err := openStore(dir, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		fp := "fp-" + tc.name
		if err := st.put(fp, []byte(tc.payload)); err != nil {
			t.Fatalf("%s: put: %v", tc.name, err)
		}
		if got := st.get(fp); string(got) != tc.stored {
			t.Errorf("%s: get = %s, want %s", tc.name, got, tc.stored)
		}
	}
	reopened, err := openStore(dir, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if got := reopened.get("fp-" + tc.name); string(got) != tc.stored {
			t.Errorf("%s: get after reopening = %s, want %s", tc.name, got, tc.stored)
		}
	}

	payload := json.RawMessage(`{"points":[1,2]}`)
	old, err := json.Marshal(storeEnvelope{V: storeVersion, FP: "old", WrittenUnix: time.Now().UnixMilli(),
		Sum: payloadSum(payload), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path("old"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := st.get("old"); !bytes.Equal(got, payload) {
		t.Fatalf("entry in the earlier format: get = %s, want %s", got, payload)
	}
}
