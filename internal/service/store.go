// Verified on-disk result store: the service's one result cache.
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
// re-simulated.  A verified payload, read or written, stays in memory
// beside its index entry, so only the first read of an entry touches
// the disk.
//
// The store is bounded two ways: entries older than the TTL are
// reclaimed (along with their checkpoint journals -- a stale result's
// resume insurance is stale too), and when the total entry size
// exceeds the cap, least-recently-used entries are evicted -- their
// checkpoint journals are kept, so an evicted fingerprint re-simulates
// cheaply by journal resume.  Both bounds cover the payloads held in
// memory.  Access order survives restarts via best-effort mtime updates
// on disk reads.
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

// storeInfo is one entry's in-memory index state.
type storeInfo struct {
	size    int64
	written time.Time
	lastUse time.Time
	payload []byte // the verified payload, once read or written
}

// diskStore indexes, caches and bounds the result entries.  All methods
// are safe for concurrent use; file I/O happens under the store mutex,
// which is fine at request granularity.  It counts its own evictions
// and quarantines, and times its disk reads, on rec.
type diskStore struct {
	dir      string // the cache directory
	ttl      time.Duration
	maxBytes int64
	rec      telemetry.Recorder

	mu      sync.Mutex
	entries map[string]*storeInfo
	total   int64
}

// openStore indexes every result entry already on disk.  Sizes and
// times come from file metadata; full verification happens on access.
func openStore(dir string, ttl time.Duration, maxBytes int64, rec telemetry.Recorder) (*diskStore, error) {
	st := &diskStore{dir: dir, ttl: ttl, maxBytes: maxBytes, rec: telemetry.OrNop(rec), entries: make(map[string]*storeInfo)}
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

func (st *diskStore) checkpointPath(fp string) string {
	return filepath.Join(st.dir, fp+".ckpt.jsonl")
}

// payloadSum is the entry checksum: hex SHA-256 over the payload bytes.
func payloadSum(payload []byte) string {
	h := sha256.Sum256(payload)
	return hex.EncodeToString(h[:])
}

// get returns fp's verified payload, or nil when there is none: never
// written, evicted, expired just now, or quarantined just now.
func (st *diskStore) get(fp string) []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	if e, ok := st.entries[fp]; ok && e.payload != nil {
		if st.expiredLocked(e, now) {
			st.evictLocked(fp, e, true)
			return nil
		}
		e.lastUse = now
		return e.payload
	}
	path := st.path(fp)
	b, err := os.ReadFile(path)
	if err != nil {
		if e, ok := st.entries[fp]; ok {
			st.dropIndexLocked(fp, e)
		}
		return nil
	}
	// cache_read times entry reads only: not memory hits, not misses.
	defer func() { st.rec.Observe(telemetry.HistCacheRead, time.Since(now)) }()
	var env storeEnvelope
	if uerr := json.Unmarshal(b, &env); uerr != nil || len(env.Payload) == 0 ||
		env.V != storeVersion || env.FP != fp ||
		env.Sum == "" || env.Sum != payloadSum(env.Payload) {
		st.quarantineLocked(fp, path)
		return nil
	}
	e, ok := st.entries[fp]
	if !ok {
		// Written behind our back (another process sharing the dir);
		// index it so eviction sees it.
		e = &storeInfo{size: int64(len(b))}
		st.entries[fp] = e
		st.total += e.size
	}
	e.written = time.UnixMilli(env.WrittenUnix)
	if st.expiredLocked(e, now) {
		st.evictLocked(fp, e, true)
		return nil
	}
	e.lastUse, e.payload = now, env.Payload
	// Persist the access order across restarts; best effort.
	os.Chtimes(path, now, now)
	return e.payload
}

// put atomically writes one verified entry and keeps its payload, then
// applies the TTL and size-cap policies to the other entries: the entry
// just written is never evicted by its own put.
func (st *diskStore) put(fp string, payload []byte) error {
	// The envelope stores the payload compacted and HTML-escaped, as
	// json.Marshal writes a RawMessage, and get verifies what is stored:
	// checksum that form, not the bytes given.
	stored, err := json.Marshal(json.RawMessage(payload))
	if err != nil {
		return fmt.Errorf("service: cache %s: %w", fp, err)
	}
	env := storeEnvelope{
		V: storeVersion, FP: fp,
		WrittenUnix: time.Now().UnixMilli(),
		Sum:         payloadSum(stored),
		Payload:     stored,
	}
	b, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("service: cache %s: %w", fp, err)
	}
	if err := telemetry.WriteFileAtomic(st.path(fp), b, 0o644); err != nil {
		return fmt.Errorf("service: cache %s: %w", fp, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	e, ok := st.entries[fp]
	if !ok {
		e = &storeInfo{}
		st.entries[fp] = e
	}
	st.total += int64(len(b)) - e.size
	e.size, e.written, e.lastUse, e.payload = int64(len(b)), now, now, stored
	// TTL reclamation first: it frees space the LRU pass then may not
	// need.
	for cand, old := range st.entries {
		if cand != fp && st.expiredLocked(old, now) {
			st.evictLocked(cand, old, true)
		}
	}
	if st.maxBytes <= 0 || st.total <= st.maxBytes {
		return nil
	}
	// LRU size cap, ties broken by fingerprint for determinism.
	fps := make([]string, 0, len(st.entries))
	for cand := range st.entries {
		fps = append(fps, cand)
	}
	sort.Slice(fps, func(i, j int) bool {
		a, b := st.entries[fps[i]].lastUse, st.entries[fps[j]].lastUse
		return a.Before(b) || a.Equal(b) && fps[i] < fps[j]
	})
	for _, cand := range fps {
		if st.total <= st.maxBytes {
			break
		}
		if cand != fp {
			st.evictLocked(cand, st.entries[cand], false)
		}
	}
	return nil
}

// expiredLocked applies the TTL policy.
func (st *diskStore) expiredLocked(e *storeInfo, now time.Time) bool {
	return st.ttl > 0 && now.Sub(e.written) > st.ttl
}

// evictLocked removes an entry by policy and counts it.  A TTL expiry
// takes the entry's checkpoint journal too; a size-cap eviction keeps
// it, so a re-request resumes instead of re-simulating.
func (st *diskStore) evictLocked(fp string, e *storeInfo, expired bool) {
	os.Remove(st.path(fp))
	st.dropIndexLocked(fp, e)
	if expired {
		os.Remove(st.checkpointPath(fp))
	}
	st.rec.Add(telemetry.CacheEvictions, 1)
}

func (st *diskStore) dropIndexLocked(fp string, e *storeInfo) {
	st.total -= e.size
	delete(st.entries, fp)
}

// quarantineLocked moves a failed entry into corrupt/ under a unique
// name, keeping the evidence out of the serving path, and counts it.
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
	st.rec.Add(telemetry.CacheCorruptQuarantined, 1)
}

// stats returns the index's entry count and entry byte total.
func (st *diskStore) stats() (entries int, bytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries), st.total
}
