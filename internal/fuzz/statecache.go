package fuzz

import (
	"encoding/binary"

	"mufuzz/internal/evm"
	"mufuzz/internal/state"
)

// prefixCache memoizes the world state reached after executing a sequence
// prefix, so a mutated child that shares a prefix with an earlier execution
// can resume from the checkpoint instead of re-running every transaction.
//
// This implements the improvement the paper sketches in §VI ("not to
// re-execute the previous transactions, but to move directly to some
// intermediate state"). Entries capture everything semantically relevant:
// the post-prefix state (its storage slots carry their taint tags), and the
// branch events and oracle reports of the prefix (replayed into the
// campaign's feedback fold so coverage/distance bookkeeping is identical to
// a full execution).
//
// What gets stored is the executor's policy (see executor.run): only the
// boundaries a run shares with its round's seed, which every sibling child
// resumes from. Stores are therefore rare — a few per thousand executions
// once a seed's prefixes are in — while nearly every lookup hits.
//
// The cache belongs to one campaign and is used from its goroutine only.
// Entries are immutable once stored; eviction is FIFO over the whole cache.
type prefixCache struct {
	entries map[uint64]*prefixEntry
	order   []uint64 // FIFO eviction order
	max     int
	hits    int
	misses  int
	// served counts the prefix transactions hits stood in for; stores counts
	// the checkpoints taken.
	served int
	stores int
}

type prefixEntry struct {
	// txs is the prefix length the entry checkpoints.
	txs int
	// st is the world state after the prefix (committed), storage taint
	// included. Never mutated after store; resuming executions fork it.
	st *state.State
	// branchesByTx are the contract's branch events of the prefix, one batch
	// per transaction, so the feedback fold (per-transaction weight traces)
	// sees exactly what a re-execution would produce.
	branchesByTx [][]evm.BranchEvent
	// reports are the prefix transactions' oracle reports, replayed into the
	// outcome on a hit. Absorption is idempotent in the campaign, so the
	// replay changes no finding; it makes every outcome self-contained, so
	// proof-of-concept capture reads the same reports whether a prefix ran
	// live or came from a checkpoint.
	reports []txReport
}

// newPrefixCache builds a cache holding at most max entries.
func newPrefixCache(max int) *prefixCache {
	return &prefixCache{entries: make(map[uint64]*prefixEntry, max), max: max}
}

// fnv-1a, hand-rolled: the stdlib hash.Hash64 interface costs an allocation
// and a virtual call per Write, and the hot path hashes every prefix of every
// sequence per execution.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvAdd(h uint64, p []byte) uint64 {
	for _, c := range p {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

func fnvAddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvAddByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// hashTx folds one transaction into a running prefix hash.
func hashTx(h uint64, tx *TxInput) uint64 {
	h = fnvAddString(h, tx.Func)
	h = fnvAddByte(h, 0)
	h = fnvAdd(h, tx.Args)
	v := tx.Value.Bytes32()
	h = fnvAdd(h, v[:])
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(tx.Sender))
	h = fnvAdd(h, buf[:])
	// World extensions fold only when present, so every single-contract
	// sequence keeps the exact hash it had before worlds existed and the
	// checkpoint cache never aliases a cross-contract prefix onto a plain one.
	if tx.Callee != 0 {
		h = fnvAddByte(h, 0xfd)
		binary.LittleEndian.PutUint64(buf[:], uint64(tx.Callee))
		h = fnvAdd(h, buf[:])
	}
	if len(tx.Attacker) > 0 {
		h = fnvAddByte(h, 0xfc)
		h = fnvAdd(h, tx.Attacker)
	}
	return fnvAddByte(h, 0xfe)
}

// hashPrefix fingerprints the first n transactions of a sequence.
func hashPrefix(seq Sequence, n int) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < n && i < len(seq); i++ {
		h = hashTx(h, &seq[i])
	}
	return h
}

// prefixHashes computes the keys of every proper prefix of seq in one pass:
// out[k] is hashPrefix(seq, k+1) for k in [0, len(seq)-2]. The hash is a pure
// running fold over transactions, so all prefixes cost one sequence walk —
// the per-execution lookup and store policy reuse the same table instead of
// rehashing O(n²) bytes, and a round's seed table is built the same way.
// buf is an optional reusable backing.
func prefixHashes(seq Sequence, buf []uint64) []uint64 {
	if len(seq) < 2 {
		return buf[:0]
	}
	out := buf[:0]
	h := uint64(fnvOffset64)
	for i := 0; i < len(seq)-1; i++ {
		h = hashTx(h, &seq[i])
		out = append(out, h)
	}
	return out
}

// lookup returns the entry for the longest cached proper prefix of seq
// (at least 1 transaction, at most len(seq)-1 so the suffix still runs).
// The txs check guards against fnv collisions across prefix lengths: a hit
// only counts when the stored entry checkpoints exactly n transactions.
func (pc *prefixCache) lookup(seq Sequence) *prefixEntry {
	if pc == nil {
		return nil
	}
	return pc.lookupHashed(prefixHashes(seq, nil))
}

// lookupHashed is lookup over a precomputed prefix-hash table (hashes[k] is
// the key of the k+1-transaction prefix, as built by prefixHashes).
func (pc *prefixCache) lookupHashed(hashes []uint64) *prefixEntry {
	if pc == nil {
		return nil
	}
	for n := len(hashes); n >= 1; n-- {
		if e, ok := pc.entries[hashes[n-1]]; ok && e.txs == n {
			pc.hits++
			pc.served += n
			return e
		}
	}
	pc.misses++
	return nil
}

// contains reports whether a prefix hash is already checkpointed.
func (pc *prefixCache) contains(key uint64) bool {
	if pc == nil {
		return false
	}
	_, ok := pc.entries[key]
	return ok
}

// admissible reports whether a prefix's branch log is small enough to
// cache. Oversized logs are not cached (loop-heavy prefixes would make
// replaying the fold as costly as re-execution); callers should check this
// BEFORE materializing the state fork a store needs, or an inadmissible
// prefix pays that cost on every execution forever (its key never enters
// the cache, so the contains() pre-check never short-circuits).
func (pc *prefixCache) admissible(branchesByTx [][]evm.BranchEvent) bool {
	total := 0
	for _, b := range branchesByTx {
		total += len(b)
	}
	return total <= 4096
}

// storeKeyed records a checkpoint for a pre-computed prefix hash. The first
// writer of a key wins; a full cache evicts its oldest entry.
func (pc *prefixCache) storeKeyed(key uint64, n int, st *state.State, branchesByTx [][]evm.BranchEvent, reports []txReport) {
	if pc == nil || n < 1 || !pc.admissible(branchesByTx) {
		return
	}
	if _, dup := pc.entries[key]; dup {
		return
	}
	if len(pc.order) >= pc.max {
		delete(pc.entries, pc.order[0])
		pc.order = pc.order[1:]
	}
	// Shallow copy: the outer slice is re-appended by the caller and must be
	// pinned, but the per-transaction event batches are immutable once
	// built (executors construct them fresh per transaction and nothing
	// mutates them afterward), so entries share them.
	pc.entries[key] = &prefixEntry{
		txs:          n,
		st:           st,
		branchesByTx: append([][]evm.BranchEvent(nil), branchesByTx...),
		reports:      append([]txReport(nil), reports...),
	}
	pc.order = append(pc.order, key)
	pc.stores++
}

// len returns the number of cached entries (diagnostics and tests).
func (pc *prefixCache) len() int {
	if pc == nil {
		return 0
	}
	return len(pc.entries)
}

// stats reports cache hits and misses.
func (pc *prefixCache) stats() (hits, misses int) {
	if pc == nil {
		return 0, 0
	}
	return pc.hits, pc.misses
}
