// Package store is the crash-safe on-disk artifact store of the campaign
// service: corpus seeds (deduplicated by coverage fingerprint), findings
// with proof-of-concept sequences, campaign snapshots, campaign metadata,
// and fleet transcripts.
//
// Two properties drive the design:
//
//   - Content addressing. Seeds are stored under their coverage fingerprint
//     — the hash of the branch-edge set the sequence covers — so two
//     campaigns that discover behaviorally equivalent sequences store one
//     seed, and PutSeed is a natural no-op for duplicates. Generic blobs
//     (snapshots, PoCs) are keyed by the caller but verified by content
//     hash on read.
//
//   - Crash safety. Every object is written to a temporary file in the same
//     directory, fsynced, and renamed into place (atomic on POSIX), and the
//     payload is framed with a magic header, explicit length, and a keccak256
//     digest. A reader that encounters a partial or corrupted file — a crash
//     mid-write, a truncated disk — detects it by frame validation and skips
//     it instead of returning garbage. Open sweeps orphaned temporaries.
//
// Logs (log.go) are the exception: a fleet transcript grows as its
// campaign's slices commit, so it is written in place, one CRC-32C-framed
// record per append, and published by a trailer that SealLog writes and
// fsyncs. Readers refuse a log without its trailer, and Get refuses a log.
//
// The store is safe for concurrent use by multiple goroutines and multiple
// processes sharing the directory: writers never modify framed objects in
// place, and the first writer of a content address wins. A log has one
// writer, the coordinator of its campaign.
package store

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"mufuzz/internal/keccak"
)

// frameMagic prefixes every object file.
var frameMagic = []byte("mufzstor1\n")

// tmpPrefix marks in-flight writes; Open removes leftovers.
const tmpPrefix = ".tmp-"

// Kind names an object family, mapped to a subdirectory.
type Kind string

// The object families of the campaign service.
const (
	KindSeed       Kind = "seeds"
	KindPoC        Kind = "pocs"
	KindSnapshot   Kind = "snapshots"
	KindMeta       Kind = "meta"
	KindTranscript Kind = "transcripts"
)

var allKinds = []Kind{KindSeed, KindPoC, KindSnapshot, KindMeta, KindTranscript}

// Store is one on-disk artifact store rooted at a directory.
type Store struct {
	root string
}

// tmpSeq disambiguates temp names across all handles and goroutines of this
// process (two handles on one directory must not collide); the PID
// disambiguates across processes.
var tmpSeq atomic.Uint64

// Open creates (if needed) and opens a store rooted at dir, sweeping
// temporary files a crashed writer left behind.
func Open(dir string) (*Store, error) {
	s := &Store{root: dir}
	for _, k := range allKinds {
		if err := os.MkdirAll(filepath.Join(dir, string(k)), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// Sweep orphaned temporaries (best effort; a concurrent writer's live
	// temp file disappearing is handled by its rename failing loudly).
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasPrefix(filepath.Base(path), tmpPrefix) {
			_ = os.Remove(path)
		}
		return nil
	})
	return s, nil
}

// cleanName rejects path-traversing object names.
func cleanName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." ||
		strings.HasPrefix(name, tmpPrefix) {
		return fmt.Errorf("store: invalid object name %q", name)
	}
	return nil
}

// frame wraps a payload with magic, length, and digest.
func frame(payload []byte) []byte {
	out := make([]byte, 0, len(frameMagic)+8+len(payload)+32)
	out = append(out, frameMagic...)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(payload)))
	out = append(out, n[:]...)
	out = append(out, payload...)
	sum := keccak.Sum256(payload)
	return append(out, sum[:]...)
}

// unframe validates a framed object and returns its payload.
func unframe(data []byte) ([]byte, error) {
	if len(data) < len(frameMagic)+8+32 || string(data[:len(frameMagic)]) != string(frameMagic) {
		return nil, fmt.Errorf("store: bad frame header")
	}
	body := data[len(frameMagic):]
	n := binary.LittleEndian.Uint64(body[:8])
	body = body[8:]
	if uint64(len(body)) != n+32 {
		return nil, fmt.Errorf("store: truncated object (%d bytes of %d)", len(body), n+32)
	}
	payload := body[:n]
	var want [32]byte
	copy(want[:], body[n:])
	if keccak.Sum256(payload) != want {
		return nil, fmt.Errorf("store: object digest mismatch")
	}
	return payload, nil
}

// writeAtomic writes a framed payload to path via tmp+fsync+rename. The
// parent directory is fsynced too, so the rename itself survives a crash.
func (s *Store) writeAtomic(path string, payload []byte) error {
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, fmt.Sprintf("%s%d-%d", tmpPrefix, os.Getpid(), tmpSeq.Add(1)))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := f.Write(frame(payload))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", path, werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory, so a name just placed in it survives a crash.
// Best effort: not every filesystem can sync a directory.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// writeAtomicClaim writes a framed payload like writeAtomic but publishes it
// with os.Link instead of os.Rename: the link fails with EEXIST when the
// path is already taken, so among concurrent claimants of one address
// exactly one wins (reported true) and the rest observe the winner's object.
func (s *Store) writeAtomicClaim(path string, payload []byte) (bool, error) {
	dir := filepath.Dir(path)
	tmp := filepath.Join(dir, fmt.Sprintf("%s%d-%d", tmpPrefix, os.Getpid(), tmpSeq.Add(1)))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	_, werr := f.Write(frame(payload))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp)
		return false, fmt.Errorf("store: write %s: %w", path, werr)
	}
	lerr := os.Link(tmp, path)
	_ = os.Remove(tmp)
	if lerr != nil {
		if os.IsExist(lerr) {
			return false, nil
		}
		return false, fmt.Errorf("store: %w", lerr)
	}
	syncDir(dir)
	return true, nil
}

// Put stores a payload under (kind, bucket, name); bucket may be "" for
// unbucketed kinds. Existing objects are overwritten atomically.
func (s *Store) Put(kind Kind, bucket, name string, payload []byte) error {
	path, err := s.objectPath(kind, bucket, name, true)
	if err != nil {
		return err
	}
	return s.writeAtomic(path, payload)
}

// PutIfAbsent stores a payload unless a valid object already exists at the
// address; it reports whether a write happened. This is the dedup primitive:
// the first writer of a content address wins, a corrupt object at the
// address is replaced, and the winner is exact — among any number of
// concurrent writers (goroutines or separate processes sharing the
// directory) exactly one observes wrote=true, because the final publish is a
// hard link into place, which the filesystem refuses when the name already
// exists. Losers leave the winner's object untouched, so retried
// cross-node seed syncs are free.
func (s *Store) PutIfAbsent(kind Kind, bucket, name string, payload []byte) (bool, error) {
	path, err := s.objectPath(kind, bucket, name, true)
	if err != nil {
		return false, err
	}
	if _, err := os.Lstat(path); err == nil {
		if _, err := readFramed(path); err == nil {
			return false, nil
		}
		// Corrupt or torn object at the address: unlink it and race to claim
		// the now-free name. Concurrent repairers both unlink (ENOENT is
		// fine), then exactly one claim below succeeds.
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return false, fmt.Errorf("store: %w", err)
		}
	}
	wrote, err := s.writeAtomicClaim(path, payload)
	if err != nil {
		return false, err
	}
	if wrote {
		return true, nil
	}
	// Lost the claim race. The winner's object was published with an atomic
	// link of a fully-synced temp file, so it must validate; a failure here
	// means disk-level corruption after publish, which Get reports too.
	if _, err := readFramed(path); err != nil {
		return false, fmt.Errorf("store: lost claim race to invalid object: %w", err)
	}
	return false, nil
}

// Get returns the payload at (kind, bucket, name). Partial or corrupt
// objects return an error, never garbage, and so does a log (ReadLog reads
// those).
func (s *Store) Get(kind Kind, bucket, name string) ([]byte, error) {
	path, err := s.objectPath(kind, bucket, name, false)
	if err != nil {
		return nil, err
	}
	return readFramed(path)
}

// Has reports whether a valid object exists at the address.
func (s *Store) Has(kind Kind, bucket, name string) bool {
	_, err := s.Get(kind, bucket, name)
	return err == nil
}

// Delete removes the object at the address (no error if absent).
func (s *Store) Delete(kind Kind, bucket, name string) error {
	path, err := s.objectPath(kind, bucket, name, false)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Entry is one listed object.
type Entry struct {
	Name    string
	Payload []byte
}

// List returns every valid object under (kind, bucket) in name order,
// silently skipping partial or corrupt files.
func (s *Store) List(kind Kind, bucket string) ([]Entry, error) {
	dir := filepath.Join(s.root, string(kind))
	if bucket != "" {
		if err := cleanName(bucket); err != nil {
			return nil, err
		}
		dir = filepath.Join(dir, bucket)
	}
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []Entry
	for _, de := range des {
		if de.IsDir() || strings.HasPrefix(de.Name(), tmpPrefix) {
			continue
		}
		payload, err := readFramed(filepath.Join(dir, de.Name()))
		if err != nil {
			continue // crash remnant or corruption: skip, never surface garbage
		}
		out = append(out, Entry{Name: de.Name(), Payload: payload})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// objectPath returns the file of (kind, bucket, name). Only a write creates
// the bucket's directory, so reading an absent object leaves nothing behind.
func (s *Store) objectPath(kind Kind, bucket, name string, create bool) (string, error) {
	if err := cleanName(name); err != nil {
		return "", err
	}
	dir := filepath.Join(s.root, string(kind))
	if bucket != "" {
		if err := cleanName(bucket); err != nil {
			return "", err
		}
		dir = filepath.Join(dir, bucket)
		if create {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return "", fmt.Errorf("store: %w", err)
			}
		}
	}
	return filepath.Join(dir, name), nil
}

func readFramed(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return unframe(data)
}

// --- Seed corpus layer ---

// Fingerprint is the content address of a corpus seed: the hash of the
// branch-edge set its sequence covers, rendered as hex. Sequences with
// identical coverage collapse to one stored seed.
func Fingerprint(edges [][2]uint64) string {
	sorted := append([][2]uint64(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	buf := make([]byte, 0, 16*len(sorted))
	var w [16]byte
	for _, e := range sorted {
		binary.LittleEndian.PutUint64(w[:8], e[0])
		binary.LittleEndian.PutUint64(w[8:], e[1])
		buf = append(buf, w[:]...)
	}
	h := keccak.Sum256(buf)
	return hex.EncodeToString(h[:16])
}

// PutSeed stores a corpus seed for a contract under its coverage
// fingerprint; it reports whether the seed was new. contract is the
// cross-campaign sharing key (the campaign service uses the MiniSol contract
// name, so evolving versions of one contract cross-pollinate; importers
// sanitize foreign sequences against their own ABI).
func (s *Store) PutSeed(contract, fingerprint string, seq []byte) (bool, error) {
	return s.PutIfAbsent(KindSeed, contract, fingerprint, seq)
}

// Seeds returns every valid stored seed of a contract in fingerprint order.
func (s *Store) Seeds(contract string) ([]Entry, error) {
	return s.List(KindSeed, contract)
}
