package sweep

import (
	"math"
	"reflect"
	"testing"

	"subcache/internal/synth"
)

// TestDigestCoversEveryField: nudging any one field of any run -- a
// counter by one, a ratio by one ulp, a string or a config field --
// changes the digest, and restoring it restores the digest.
func TestDigestCoversEveryField(t *testing.T) {
	res, err := Run(Request{
		Arch:      synth.Z8000,
		Points:    []Point{{Net: 64, Block: 8, Sub: 4}, {Net: 64, Block: 8, Sub: 8}},
		Refs:      3000,
		Workloads: []string{"CCP", "C1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Digest()
	if again := res.Digest(); again != want {
		t.Fatalf("digest not deterministic: %s then %s", want, again)
	}
	p := res.Points()[1]
	run := &res.Runs[p][1]
	var walk func(v reflect.Value, name string)
	walk = func(v reflect.Value, name string) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), name+"."+v.Type().Field(i).Name)
			}
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
		default:
			t.Fatalf("%s: no nudge for %v", name, v.Kind())
		}
		if res.Digest() == want {
			t.Errorf("nudging %s left the digest unchanged", name)
		}
		v.Set(old)
		if res.Digest() != want {
			t.Fatalf("restoring %s did not restore the digest", name)
		}
	}
	walk(reflect.ValueOf(run).Elem(), "Run")
}
