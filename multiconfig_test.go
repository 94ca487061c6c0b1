package subcache

import (
	"reflect"
	"strings"
	"testing"
)

// TestSimulateWorkloadMany: the facade's single-pass path must match
// per-configuration SimulateWorkload calls bit for bit, across family
// members, a second family, and a fallback configuration.
func TestSimulateWorkloadMany(t *testing.T) {
	cfgs := []Config{
		{NetSize: 1024, BlockSize: 16, SubBlockSize: 2, Assoc: 4, WordSize: 2},
		{NetSize: 1024, BlockSize: 16, SubBlockSize: 8, Assoc: 4, WordSize: 2},
		{NetSize: 1024, BlockSize: 16, SubBlockSize: 4, Assoc: 4, WordSize: 2,
			Fetch: LoadForward},
		{NetSize: 256, BlockSize: 8, SubBlockSize: 8, Assoc: 2, WordSize: 2,
			Fetch: WholeBlock},
		{NetSize: 1024, BlockSize: 16, SubBlockSize: 8, Assoc: 4, WordSize: 2,
			PrefetchOBL: true}, // not multipass-safe: reference fallback
	}
	const refs = 8000
	many, err := SimulateWorkloadMany("ED", cfgs, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(cfgs) {
		t.Fatalf("got %d runs for %d configs", len(many), len(cfgs))
	}
	for i, cfg := range cfgs {
		one, err := SimulateWorkload("ED", cfg, refs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(many[i], one) {
			t.Errorf("cfgs[%d]: single-pass run differs\n got:  %v\n want: %v", i, many[i], one)
		}
	}
}

func TestSimulateWorkloadManyErrors(t *testing.T) {
	good := Config{NetSize: 256, BlockSize: 8, SubBlockSize: 2, Assoc: 2, WordSize: 2}
	if _, err := SimulateWorkloadMany("ED", nil, 1000); err == nil {
		t.Error("accepted empty config list")
	}
	if _, err := SimulateWorkloadMany("NOSUCH", []Config{good}, 1000); err == nil {
		t.Error("accepted unknown workload")
	}
	mixed := []Config{good,
		{NetSize: 256, BlockSize: 8, SubBlockSize: 4, Assoc: 2, WordSize: 4}}
	if _, err := SimulateWorkloadMany("ED", mixed, 1000); err == nil ||
		!strings.Contains(err.Error(), "WordSize") {
		t.Errorf("mixed word sizes: err = %v", err)
	}
	bad := []Config{{NetSize: 256, BlockSize: 8, SubBlockSize: 3, Assoc: 2, WordSize: 2}}
	if _, err := SimulateWorkloadMany("ED", bad, 1000); err == nil {
		t.Error("accepted invalid geometry")
	}
}
