package multipass_test

import (
	"encoding/binary"
	"testing"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/trace"
)

// decodeRefs interprets raw fuzzer bytes as a reference stream: each
// 6-byte record is a little-endian 32-bit address (bounded to an 18-bit
// space so the small caches see real contention), a kind byte and an
// ignored pad byte.  Any input, including the internal/trace fuzz
// corpus seeds below, decodes to some trace.
func decodeRefs(data []byte, wordSize int) []trace.Ref {
	const maxRefs = 2048
	refs := make([]trace.Ref, 0, len(data)/6)
	for len(data) >= 6 && len(refs) < maxRefs {
		a := addr.Addr(binary.LittleEndian.Uint32(data) & 0x3ffff)
		refs = append(refs, trace.Ref{
			Addr: addr.AlignDown(a, uint64(wordSize)),
			Kind: trace.Kind(data[4] % 3),
			Size: uint8(wordSize),
		})
		data = data[6:]
	}
	return refs
}

// fuzzFamilies are the configuration families every fuzz input is
// replayed through: a plain LRU write-through family and a harder one
// combining Random replacement, copy-back and warm-start accounting,
// both with mixed fetch-policy lanes, and an all-demand Table 7 family
// (4-way LRU, write-allocate, write-through) with and without the
// Z8000's warm start.
func fuzzFamilies() [][]cache.Config {
	plain := cache.Config{NetSize: 256, BlockSize: 16, Assoc: 4, WordSize: 2}
	hard := cache.Config{
		NetSize: 64, BlockSize: 32, Assoc: 2, WordSize: 2,
		Replacement: cache.Random, RandomSeed: 99,
		CopyBack: true, WarmStart: true,
	}
	var table7, table7Warm []cache.Config
	for sub := 16; sub >= 2; sub /= 2 {
		p := sweep.Point{Net: 256, Block: 16, Sub: sub}
		table7 = append(table7, p.Config(synth.PDP11))
		table7Warm = append(table7Warm, p.Config(synth.Z8000))
	}
	return [][]cache.Config{
		fetchLanes(plain, []int{2, 4, 8, 16}),
		fetchLanes(hard, []int{2, 8, 32}),
		table7,
		table7Warm,
	}
}

// FuzzMultiPassEquivalence: for arbitrary reference streams, every
// counter of every lane must match a reference simulation of the same
// configuration, through every entry point (see diffFamily).  The seed
// corpus reuses the internal/trace fuzz seeds (raw din text and binary
// trace bytes) plus structured streams that exercise eviction and write
// paths.
func FuzzMultiPassEquivalence(f *testing.F) {
	// Seeds shared with internal/trace's FuzzTextReader / FuzzBinReader.
	f.Add([]byte("0 100 2\n"))
	f.Add([]byte("2 dead 4\n1 beef 1\n"))
	f.Add([]byte("# comment\n\n0 0x10\n"))
	f.Add([]byte("9 zz\n"))
	f.Add([]byte("0 100 2 trailing\n"))
	f.Add([]byte("SBCT"))
	// Structured seeds: a sequential sweep (evictions) and a hot loop.
	var seq []byte
	for i := 0; i < 64; i++ {
		var rec [6]byte
		binary.LittleEndian.PutUint32(rec[:4], uint32(i*32))
		rec[4] = byte(i % 3)
		seq = append(seq, rec[:]...)
	}
	f.Add(seq)
	var loop []byte
	for i := 0; i < 64; i++ {
		var rec [6]byte
		binary.LittleEndian.PutUint32(rec[:4], uint32((i%5)*64))
		rec[4] = byte(i % 2)
		loop = append(loop, rec[:]...)
	}
	f.Add(loop)

	f.Fuzz(func(t *testing.T, data []byte) {
		refs := decodeRefs(data, 2)
		if len(refs) == 0 {
			return
		}
		for _, cfgs := range fuzzFamilies() {
			diffFamily(t, cfgs, refs)
		}
	})
}
