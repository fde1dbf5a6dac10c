package fuzz

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

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
// the post-prefix state, the cross-transaction storage taint, and the branch
// events of the prefix (replayed into the campaign's feedback fold so
// coverage/distance bookkeeping is identical to a full execution).
//
// What gets stored is the executor's policy (see executor.run): only the
// boundaries a run shares with its round's seed, which every sibling child
// resumes from. Stores are therefore rare — a few per thousand executions
// once a seed's prefixes are in — while nearly every lookup hits.
//
// Concurrency: the cache is striped across prefixShards. Each shard keeps an
// authoritative live map, mutated in place under the shard mutex, and
// publishes an immutable copy of it behind an atomic pointer on every store.
// Readers — the per-execution resume lookup of every worker — never take a
// lock: they load the current published snapshot and read a map nothing will
// ever mutate. The store path dedups against the live map under the lock
// (contains, storeKeyed), so a prefix another worker just checkpointed is
// never forked twice.
//
// Entries are immutable once stored: readers copy entry.st outside any lock,
// writers only ever insert or evict whole entries. Eviction is FIFO per
// shard. A reader holding a stale snapshot may resume from an entry that was
// just evicted — harmless, since entries stay valid forever and the
// cache-transparency invariant makes their use semantically invisible.
type prefixCache struct {
	shards [prefixShards]prefixShard
	// epoch counts published snapshot generations across all shards, one per
	// store; prefixView compares it to skip refreshing unchanged snapshots.
	epoch  atomic.Uint64
	hits   atomic.Int64
	misses atomic.Int64
	// served counts the prefix transactions hits stood in for.
	served atomic.Int64
}

// prefixShards is the stripe count. Sixteen shards keep any single shard's
// copy-on-write republish small while costing only a few hundred bytes of
// overhead.
const prefixShards = 16

// prefixSnap is one shard's immutable published generation.
type prefixSnap map[uint64]*prefixEntry

type prefixShard struct {
	// mu guards live and order; readers go through snap.
	mu sync.Mutex
	// live is the authoritative entry map, mutated in place under mu.
	live prefixSnap
	// snap is the published immutable copy the lock-free readers use.
	snap  atomic.Pointer[prefixSnap]
	order []uint64 // FIFO eviction order
	max   int      // per-shard capacity
}

type prefixEntry struct {
	// txs is the prefix length the entry checkpoints.
	txs int
	// st is the world state after the prefix (committed). Never mutated
	// after store; resuming executions copy it.
	st *state.State
	// taint is the EVM's cross-transaction storage taint after the prefix.
	taint map[evm.StorageKey]evm.Taint
	// branchesByTx are the contract's branch events of the prefix, one batch
	// per transaction, so the feedback fold (per-transaction weight traces)
	// sees exactly what a re-execution would produce.
	branchesByTx [][]evm.BranchEvent
	// reports are the prefix transactions' oracle reports, replayed into the
	// outcome on a hit. Absorption is idempotent on the coordinator, so the
	// replay is a semantic no-op for a sequential campaign — but it makes
	// every outcome self-contained, which keeps proof-of-concept capture
	// deterministic in batched mode regardless of which worker happened to
	// populate the cache first.
	reports []txReport
	// nestedDepth is the deepest branch-site nesting reached in the prefix.
	nestedDepth int
}

// newPrefixCache builds a cache holding about max entries in total, striped
// evenly across the shards.
func newPrefixCache(max int) *prefixCache {
	perShard := (max + prefixShards - 1) / prefixShards
	if perShard < 1 {
		perShard = 1
	}
	pc := &prefixCache{}
	empty := prefixSnap{}
	for i := range pc.shards {
		pc.shards[i].live = prefixSnap{}
		pc.shards[i].snap.Store(&empty)
		pc.shards[i].max = perShard
	}
	return pc
}

func (pc *prefixCache) shard(key uint64) *prefixShard {
	return &pc.shards[key%prefixShards]
}

// view returns the shard's current immutable generation.
func (sh *prefixShard) view() prefixSnap { return *sh.snap.Load() }

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
// Reads the authoritative live state; the hot path uses prefixView instead.
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
		key := hashes[n-1]
		sh := pc.shard(key)
		sh.mu.Lock()
		e, ok := sh.live[key]
		sh.mu.Unlock()
		if ok && e.txs == n {
			pc.hits.Add(1)
			pc.served.Add(int64(n))
			return e
		}
	}
	pc.misses.Add(1)
	return nil
}

// contains reports whether a prefix hash is already checkpointed,
// authoritatively: it consults the live map under the shard lock, so the
// store path never duplicates the fork + taint materialization for an entry
// another executor stored after this one refreshed its view.
func (pc *prefixCache) contains(key uint64) bool {
	if pc == nil {
		return false
	}
	sh := pc.shard(key)
	sh.mu.Lock()
	_, ok := sh.live[key]
	sh.mu.Unlock()
	return ok
}

// admissible reports whether a prefix's branch log is small enough to
// cache. Oversized logs are not cached (loop-heavy prefixes would make
// replaying the fold as costly as re-execution); callers should check this
// BEFORE materializing the state fork and taint snapshot a store needs, or
// an inadmissible prefix pays that cost on every execution forever (its key
// never enters the cache, so the contains() pre-check never short-circuits).
func (pc *prefixCache) admissible(branchesByTx [][]evm.BranchEvent) bool {
	total := 0
	for _, b := range branchesByTx {
		total += len(b)
	}
	return total <= 4096
}

// storeKeyed records a checkpoint for a pre-computed prefix hash. The first
// writer of a key wins; concurrent proposals for the same prefix are
// deduplicated against the live map under the shard's lock. The live map is
// mutated in place and a fresh immutable snapshot is published at once, so
// the sibling children that resume from the new checkpoint see it on their
// next lookup, while in-flight readers keep their consistent generation.
func (pc *prefixCache) storeKeyed(key uint64, n int, st *state.State, taint map[evm.StorageKey]evm.Taint, branchesByTx [][]evm.BranchEvent, reports []txReport, nestedDepth int) {
	if pc == nil || n < 1 || !pc.admissible(branchesByTx) {
		return
	}
	// Shallow copy: the outer slice is re-appended by the caller and must be
	// pinned, but the per-transaction event batches are immutable once
	// built (executors construct them fresh per transaction and nothing
	// mutates them afterward), so entries share them.
	cp := append([][]evm.BranchEvent(nil), branchesByTx...)
	entry := &prefixEntry{
		txs:          n,
		st:           st,
		taint:        taint,
		branchesByTx: cp,
		reports:      append([]txReport(nil), reports...),
		nestedDepth:  nestedDepth,
	}

	sh := pc.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.live[key]; dup {
		return
	}
	if len(sh.order) >= sh.max {
		oldest := sh.order[0]
		sh.order = sh.order[1:]
		delete(sh.live, oldest)
	}
	sh.live[key] = entry
	sh.order = append(sh.order, key)
	// Publish: copy the live map into a fresh immutable snapshot, swap it in
	// for the lock-free readers, and bump the epoch so per-worker views
	// refresh.
	next := make(prefixSnap, len(sh.live))
	for k, v := range sh.live {
		next[k] = v
	}
	sh.snap.Store(&next)
	pc.epoch.Add(1)
}

// len returns the total number of cached entries (diagnostics and tests).
func (pc *prefixCache) len() int {
	if pc == nil {
		return 0
	}
	n := 0
	for i := range pc.shards {
		sh := &pc.shards[i]
		sh.mu.Lock()
		n += len(sh.live)
		sh.mu.Unlock()
	}
	return n
}

// stats reports cache hits and misses.
func (pc *prefixCache) stats() (hits, misses int) {
	if pc == nil {
		return 0, 0
	}
	return int(pc.hits.Load()), int(pc.misses.Load())
}

// prefixView is one executor's cached read affinity over the cache: the 16
// shard snapshots, revalidated against the global epoch once per execution
// instead of once per probe. The resume lookup probes up to len(seq)-1 keys;
// through the view those probes are plain map reads on worker-local pointers
// — no atomics, no shared cache lines — while a stale view is at most one
// execution behind (and staleness is semantically invisible by cache
// transparency: a missed fresh entry only costs a longer re-execution, a
// just-evicted entry is still valid).
type prefixView struct {
	pc    *prefixCache
	epoch uint64
	snaps [prefixShards]prefixSnap
}

// refresh revalidates the view against pc, reloading the shard snapshots
// only when some store has bumped the epoch since the last refresh. The
// epoch is read before the snapshots: a concurrent store between the two
// loads yields fresher snapshots stamped with the older epoch, forcing a
// redundant (never unsafe) refresh next time.
func (v *prefixView) refresh(pc *prefixCache) {
	if pc == nil {
		v.pc = nil
		return
	}
	e := pc.epoch.Load()
	if v.pc == pc && v.epoch == e {
		return
	}
	for i := range v.snaps {
		v.snaps[i] = pc.shards[i].view()
	}
	v.pc = pc
	v.epoch = e
}

// lookupHashed mirrors prefixCache.lookupHashed over the view's snapshots.
func (v *prefixView) lookupHashed(hashes []uint64) *prefixEntry {
	if v.pc == nil {
		return nil
	}
	for n := len(hashes); n >= 1; n-- {
		key := hashes[n-1]
		if e, ok := v.snaps[key%prefixShards][key]; ok && e.txs == n {
			v.pc.hits.Add(1)
			v.pc.served.Add(int64(n))
			return e
		}
	}
	v.pc.misses.Add(1)
	return nil
}
