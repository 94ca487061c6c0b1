package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"testing"

	"subcache/internal/addr"
	"subcache/internal/trace"
)

// goldenRefs is the trace length the word-stream digests pin: long
// enough to cross a dozen broadcast chunks and many phase changes, and
// deliberately not a multiple of the chunk size.
const goldenRefs = 100_003

// wordStreamGolden holds, per catalog workload, the SHA-256 of the
// packed word stream (trace.PackRefs form at the architecture's word
// size, one little-endian uint64 per word) that NewWordSource yields at
// goldenRefs references.  A generator rewrite that moves a single
// counter changes a digest; the 4-decimal result tables would not
// notice.
var wordStreamGolden = map[string]string{
	"OPSYS":  "6b6379d82acf7c5869bafa26982611f453ca2d74dbaff19c7a9b0129695a6e24",
	"PLOT":   "e71825f9fc4854912055c947671e4a56b4c2324784af392cb3ddf3d773d4599a",
	"SIMP":   "124f1c73cce9630825fa0d3e6c81ad645c71823fa28c1a65482c8287c1f61b16",
	"TRACE":  "ca0b99692356103e8ae6708f8a3d889709f88ccf476d045aec511fbe3501d106",
	"ROFF":   "cad532c072a0d10070742f71302d1d1f39afd78d91063da8515623ab4e524a57",
	"ED":     "503dcf17ce66f550a64b5b15143d6cb542ae583b7dab72f70c1f4a1bcf93f440",
	"CCP":    "4abb413e60f0f1bddae6db74949beed711db0e6cee54643d2a24149ff5a55d37",
	"C1":     "afc79815a0a709517313aae23802f244a9c39f707c6d2ea8122c9a45191a2c04",
	"C2":     "57c13fca78b49c8739c305f0e8c932138c19c7d0805a794982cafea6d7fe1fee",
	"OD":     "d8a1bd2a7e3a9c7e52c4ba3475e554b7457d281955175a2a141aae8146de62b9",
	"GREP":   "0adb06710dcd155225ed9c689485fc79123dcb5f531522ac7cb838c2efae5227",
	"SORT":   "70c3aeb7085a1bc23caf8bf5d8d06ea75f8c7439e7ffd8a26d63c3fed299220b",
	"LS":     "2c1af62f2bb0fb034c7ed25a81ddce046e60300919ff7f424f7518e3453535d4",
	"NM":     "f3e1cf02b4e62e15b6750880864f1a2befd63ecf28f558e576cfda1b92d2afae",
	"NROFF":  "befb9ef98fbb51202e6ade69f5aefdea8ec4b4b33e68fa711d1f055677c934f1",
	"SPICE":  "06398c09cfeb2bb05c7651349e9a8fc798a5272b8ae24b327ab2035964fb6acf",
	"OTMDL":  "b3485ea410488e1c25fc5eece8ce21b8caa5d2f9c02f1541d1193d507ed2db40",
	"SEDX":   "a1aae011465c942ad6c0f5595b97963b9343ed9bbf2487681579dbf387da4c1e",
	"QSORT":  "b06a83a468335fcb7e122d7469e44951691e8d9e3e8cfbd7afc6bfecb05553ee",
	"TROFF":  "9acbf6b3ef9434de657fc128b2fcab9bea6d9108ccd8f4cb35f6b1554347b757",
	"C2V":    "62d5a439dbf353c683fcc82d7e89f2c00b8d2b5879507608dc937a7b7a10e1f4",
	"FGO1":   "08df89b513de8c1d1428a341b8ee816bba64372054e6f0a272e57daa61cf924b",
	"FCOMP1": "2416c9e5ba1ef4daf17694acccc8a3fb82a9dca3d9e941f9cf5a17d52395c9ae",
	"PGO1":   "7cabd9c2de39bcfebeaddc0145c73c63c6911a19bb88c2933af1b7a5576b879f",
	"PGO2":   "a5d3c67aae6b3e4d85c613bfc971829bb56651e84772e769d6cad0db47c461fd",
}

// wordStreamDigest hashes the packed word stream NewWordSource yields
// for p, read through its trace.Source view.
func wordStreamDigest(t *testing.T, p Profile, limit, wordSize int) string {
	t.Helper()
	src, err := NewWordSource(p, limit, wordSize)
	if err != nil {
		t.Fatal(err)
	}
	shift := addr.Log2(uint64(wordSize))
	refs := make([]trace.Ref, trace.ChunkRefs)
	words := make([]uint64, trace.ChunkRefs)
	raw := make([]byte, 8*trace.ChunkRefs)
	h := sha256.New()
	for {
		n, err := trace.ReadChunk(src, refs)
		trace.PackRefs(words, refs[:n], shift)
		for i, w := range words[:n] {
			binary.LittleEndian.PutUint64(raw[8*i:], w)
		}
		h.Write(raw[:8*n])
		if err == io.EOF {
			return hex.EncodeToString(h.Sum(nil))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWordStreamGolden pins every catalog workload's word stream bit
// for bit.
func TestWordStreamGolden(t *testing.T) {
	for _, a := range AllArchs() {
		for _, p := range Workloads(a) {
			got := wordStreamDigest(t, p, goldenRefs, a.WordSize())
			if want := wordStreamGolden[p.Name]; got != want {
				t.Errorf("%s/%s: word stream digest %s, want %s", a, p.Name, got, want)
			}
		}
	}
}
