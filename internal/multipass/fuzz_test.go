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

// fuzzGeometry decodes a family from one fuzz byte: bit 0 picks the
// word size (2 or 4), bits 1-3 the block size (4 to 64 bytes), bits
// 4-5 the associativity (1, 2 or 4, capped at the frame count), bit 6
// warm start and bit 7 the net size (64 or 256 bytes).  Its lanes are
// every demand-fetch sub-block size from the block down to the word.
func fuzzGeometry(b byte) []cache.Config {
	base := cache.Config{
		WordSize:  2 << (b & 1),
		BlockSize: 4 << (b >> 1 & 7 % 5),
		Assoc:     1 << (b >> 4 & 3 % 3),
		WarmStart: b>>6&1 == 1,
		NetSize:   64 << (b >> 7 * 2),
	}
	base.Assoc = min(base.Assoc, base.NetSize/base.BlockSize)
	var subs []int
	for sub := base.BlockSize; sub >= base.WordSize; sub /= 2 {
		subs = append(subs, sub)
	}
	return demandLanes(base, subs)
}

// fuzzFamilies are the Table 7 families every fuzz input is also
// replayed through: the all-demand 256:16 family (4-way LRU,
// write-allocate, write-through) with and without the Z8000's warm
// start.
func fuzzFamilies() [][]cache.Config {
	var table7, table7Warm []cache.Config
	for sub := 16; sub >= 2; sub /= 2 {
		p := sweep.Point{Net: 256, Block: 16, Sub: sub}
		table7 = append(table7, p.Config(synth.PDP11))
		table7Warm = append(table7Warm, p.Config(synth.Z8000))
	}
	return [][]cache.Config{table7, table7Warm}
}

// FuzzMultiPassEquivalence: for arbitrary reference streams, every
// counter of every lane must match a reference simulation of the same
// configuration, through every entry point (see diffFamily), on a
// family whose geometry the input's first byte picks (fuzzGeometry),
// on that geometry's net-64 and net-256 families as one bundle
// (diffBundle), and on the Table 7 families of fuzzFamilies.  The seed
// corpus reuses the internal/trace fuzz seeds (raw din text and binary
// trace bytes) plus structured streams that exercise eviction and
// write paths.
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
		if len(data) == 0 {
			return
		}
		geo := fuzzGeometry(data[0])
		if refs := decodeRefs(data[1:], geo[0].WordSize); len(refs) > 0 {
			diffFamily(t, geo, refs)
			diffBundle(t, [][]cache.Config{fuzzGeometry(data[0] &^ 0x80), fuzzGeometry(data[0] | 0x80)}, refs)
		}
		refs := decodeRefs(data, 2)
		if len(refs) == 0 {
			return
		}
		for _, cfgs := range fuzzFamilies() {
			diffFamily(t, cfgs, refs)
		}
	})
}
