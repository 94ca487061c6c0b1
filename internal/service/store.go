// Verified on-disk result store: the durable half of the service's
// result cache.
//
// Each entry (<dir>/cache/<fp>.json) is a JSON envelope -- schema
// version, owning fingerprint, write timestamp, SHA-256 of the payload,
// payload -- written atomically via telemetry.WriteFileAtomic (fsync'd
// temp + rename), so readers never observe a torn write and a crash
// never leaves a partial entry.  A read re-verifies everything: an
// entry that fails to parse, carries the wrong version or fingerprint,
// or whose payload checksum mismatches is quarantined into
// <dir>/cache/corrupt/ (never served, never silently deleted -- the
// evidence is kept for inspection) and the request is transparently
// re-simulated.
//
// The store is bounded two ways: entries older than the TTL are
// reclaimed (along with their checkpoint journals -- a stale result's
// resume insurance is stale too), and when the total payload size
// exceeds the cap, least-recently-used entries are evicted -- their
// checkpoint journals are kept, so an evicted fingerprint re-simulates
// cheaply by journal resume.  Access order survives restarts via
// best-effort mtime updates on hits.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"subcache/internal/telemetry"
)

// storeVersion is the cache-entry envelope schema version; entries with
// a different version fail verification and are quarantined.
const storeVersion = 1

// storeEnvelope is the on-disk form of one cache entry.
type storeEnvelope struct {
	V           int             `json:"v"`
	FP          string          `json:"fp"`
	WrittenUnix int64           `json:"written_unix_ms"`
	Sum         string          `json:"sum"`
	Payload     json.RawMessage `json:"payload"`
}

// storeStatus classifies one store lookup.
type storeStatus int

const (
	// storeMiss: no entry (never written, or evicted earlier).
	storeMiss storeStatus = iota
	// storeHit: a verified, fresh entry.
	storeHit
	// storeExpired: the entry outlived the TTL and was reclaimed.
	storeExpired
	// storeCorrupt: the entry failed verification and was quarantined.
	storeCorrupt
)

// storeInfo is one entry's in-memory index state.
type storeInfo struct {
	size    int64
	written time.Time
	lastUse time.Time
}

// diskStore indexes and bounds the on-disk result cache.  All methods
// are safe for concurrent use; file I/O happens under the store mutex,
// which is fine at request granularity.
type diskStore struct {
	dir      string // the cache directory
	ttl      time.Duration
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*storeInfo
	total   int64
}

// openStore indexes every result entry already on disk.  Sizes and
// times come from file metadata; full verification happens on access.
func openStore(dir string, ttl time.Duration, maxBytes int64) (*diskStore, error) {
	st := &diskStore{dir: dir, ttl: ttl, maxBytes: maxBytes, entries: make(map[string]*storeInfo)}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: cache: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || filepath.Ext(name) != ".json" {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		fp := strings.TrimSuffix(name, ".json")
		st.entries[fp] = &storeInfo{size: fi.Size(), written: fi.ModTime(), lastUse: fi.ModTime()}
		st.total += fi.Size()
	}
	return st, nil
}

func (st *diskStore) path(fp string) string { return filepath.Join(st.dir, fp+".json") }

// payloadSum is the entry checksum: hex SHA-256 over the payload bytes.
func payloadSum(payload []byte) string {
	h := sha256.Sum256(payload)
	return hex.EncodeToString(h[:])
}

// touch reports whether a fresh entry exists for fp, bumping its access
// time; expired reports that the entry existed but outlived the TTL and
// was reclaimed just now (the caller owns the bookkeeping: counters,
// journal record, checkpoint removal).
func (st *diskStore) touch(fp string) (ok, expired bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, found := st.entries[fp]
	if !found {
		return false, false
	}
	if st.expiredLocked(e, time.Now()) {
		st.dropLocked(fp, e)
		return false, true
	}
	e.lastUse = time.Now()
	return true, false
}

// get loads and fully verifies one entry.
func (st *diskStore) get(fp string) ([]byte, storeStatus) {
	st.mu.Lock()
	defer st.mu.Unlock()
	path := st.path(fp)
	b, err := os.ReadFile(path)
	if err != nil {
		if e, ok := st.entries[fp]; ok {
			st.dropIndexLocked(fp, e)
		}
		return nil, storeMiss
	}
	var env storeEnvelope
	if uerr := json.Unmarshal(b, &env); uerr != nil ||
		env.V != storeVersion || env.FP != fp ||
		env.Sum == "" || env.Sum != payloadSum(env.Payload) {
		st.quarantineLocked(fp, path)
		return nil, storeCorrupt
	}
	written := time.UnixMilli(env.WrittenUnix)
	e, ok := st.entries[fp]
	if !ok {
		// Written behind our back (another process sharing the dir);
		// index it so eviction sees it.
		e = &storeInfo{size: int64(len(b))}
		st.entries[fp] = e
		st.total += e.size
	}
	e.written = written
	if st.expiredLocked(e, time.Now()) {
		st.dropLocked(fp, e)
		return nil, storeExpired
	}
	e.lastUse = time.Now()
	// Persist the access order across restarts; best effort.
	now := time.Now()
	os.Chtimes(path, now, now)
	return env.Payload, storeHit
}

// put atomically writes one verified entry, then applies the TTL and
// size-cap policies.  expired lists entries reclaimed by TTL (their
// checkpoint journals should go too); evicted lists entries removed by
// the LRU size cap (their checkpoint journals stay, as cheap-resume
// insurance).  The entry just written is never evicted by its own put.
func (st *diskStore) put(fp string, payload []byte) (expired, evicted []string, err error) {
	// The envelope stores the payload compacted and HTML-escaped, as
	// json.Marshal writes a RawMessage, and get verifies what is stored:
	// checksum that form, not the bytes given.
	stored, err := json.Marshal(json.RawMessage(payload))
	if err != nil {
		return nil, nil, fmt.Errorf("service: cache %s: %w", fp, err)
	}
	env := storeEnvelope{
		V: storeVersion, FP: fp,
		WrittenUnix: time.Now().UnixMilli(),
		Sum:         payloadSum(stored),
		Payload:     stored,
	}
	b, err := json.Marshal(env)
	if err != nil {
		return nil, nil, fmt.Errorf("service: cache %s: %w", fp, err)
	}
	if err := telemetry.WriteFileAtomic(st.path(fp), b, 0o644); err != nil {
		return nil, nil, fmt.Errorf("service: cache %s: %w", fp, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	if e, ok := st.entries[fp]; ok {
		st.total += int64(len(b)) - e.size
		e.size = int64(len(b))
		e.written, e.lastUse = now, now
	} else {
		st.entries[fp] = &storeInfo{size: int64(len(b)), written: now, lastUse: now}
		st.total += int64(len(b))
	}
	// TTL reclamation first (it frees space the LRU pass then may not
	// need), oldest first for determinism.
	for _, cand := range st.sortedLocked(func(a, b *storeInfo) bool { return a.written.Before(b.written) }) {
		e := st.entries[cand]
		if cand == fp || !st.expiredLocked(e, now) {
			continue
		}
		st.dropLocked(cand, e)
		expired = append(expired, cand)
	}
	// LRU size cap.
	if st.maxBytes > 0 {
		for _, cand := range st.sortedLocked(func(a, b *storeInfo) bool { return a.lastUse.Before(b.lastUse) }) {
			if st.total <= st.maxBytes {
				break
			}
			if cand == fp {
				continue
			}
			e, ok := st.entries[cand]
			if !ok {
				continue
			}
			st.dropLocked(cand, e)
			evicted = append(evicted, cand)
		}
	}
	return expired, evicted, nil
}

// sortedLocked returns the index's fingerprints ordered by less over
// their infos (ties broken by fingerprint for determinism).
func (st *diskStore) sortedLocked(less func(a, b *storeInfo) bool) []string {
	fps := make([]string, 0, len(st.entries))
	for fp := range st.entries {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool {
		a, b := st.entries[fps[i]], st.entries[fps[j]]
		if less(a, b) != less(b, a) {
			return less(a, b)
		}
		return fps[i] < fps[j]
	})
	return fps
}

// expiredLocked applies the TTL policy.
func (st *diskStore) expiredLocked(e *storeInfo, now time.Time) bool {
	return st.ttl > 0 && now.Sub(e.written) > st.ttl
}

// dropLocked removes an entry's file and index state.
func (st *diskStore) dropLocked(fp string, e *storeInfo) {
	os.Remove(st.path(fp))
	st.dropIndexLocked(fp, e)
}

func (st *diskStore) dropIndexLocked(fp string, e *storeInfo) {
	st.total -= e.size
	delete(st.entries, fp)
}

// quarantineLocked moves a failed entry into corrupt/ under a unique
// name, keeping the evidence out of the serving path.
func (st *diskStore) quarantineLocked(fp, path string) {
	qdir := filepath.Join(st.dir, "corrupt")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(path)
	} else {
		dst := filepath.Join(qdir, fp+".json")
		for i := 1; ; i++ {
			if _, err := os.Lstat(dst); os.IsNotExist(err) {
				break
			}
			dst = filepath.Join(qdir, fmt.Sprintf("%s.json.%d", fp, i))
		}
		if os.Rename(path, dst) != nil {
			os.Remove(path)
		}
	}
	if e, ok := st.entries[fp]; ok {
		st.dropIndexLocked(fp, e)
	}
}

// stats returns the index's entry count and payload byte total.
func (st *diskStore) stats() (entries int, bytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries), st.total
}
