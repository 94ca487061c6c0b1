package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
)

// Digest is an exact fingerprint of the result's runs: SHA-256 over
// every field of every metrics.Run, points in canonical order (Points,
// which is Grid order for a Grid request), then each point's runs in
// workload order.  Counters are hashed as they are and float ratios by
// math.Float64bits, so unlike the 4-decimal tables in results/ a
// single count of difference anywhere changes it.
func (r *Result) Digest() string {
	h := sha256.New()
	for _, p := range r.Points() {
		for _, run := range r.Runs[p] {
			hashFields(h, reflect.ValueOf(run))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashFields writes v to h field by field in declaration order:
// integers and bools as 8 little-endian bytes, floats as their IEEE
// bits, strings length-prefixed and structs recursively.  It panics on
// any other kind, so a new field of a type it cannot hash is caught by
// the first test that digests a result instead of silently skipped.
func hashFields(h hash.Hash, v reflect.Value) {
	var b [8]byte
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashFields(h, v.Field(i))
		}
		return
	case reflect.String:
		binary.LittleEndian.PutUint64(b[:], uint64(v.Len()))
		h.Write(b[:])
		h.Write([]byte(v.String()))
		return
	case reflect.Bool:
		if v.Bool() {
			b[0] = 1
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		binary.LittleEndian.PutUint64(b[:], uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		binary.LittleEndian.PutUint64(b[:], v.Uint())
	case reflect.Float32, reflect.Float64:
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float()))
	default:
		panic(fmt.Sprintf("sweep: Digest cannot hash a %v field", v.Type()))
	}
	h.Write(b[:])
}
