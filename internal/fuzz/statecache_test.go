package fuzz

import (
	"reflect"
	"testing"

	"mufuzz/internal/corpus"
	"mufuzz/internal/evm"
	"mufuzz/internal/minisol"
	"mufuzz/internal/state"
	"mufuzz/internal/u256"
)

func TestHashPrefixDistinguishesSequences(t *testing.T) {
	a := Sequence{{Func: "__ctor"}, {Func: "f", Args: []byte{1, 2}}}
	b := Sequence{{Func: "__ctor"}, {Func: "f", Args: []byte{1, 3}}}
	c := Sequence{{Func: "__ctor"}, {Func: "g", Args: []byte{1, 2}}}
	d := Sequence{{Func: "__ctor"}, {Func: "f", Args: []byte{1, 2}, Value: u256.One}}
	e := Sequence{{Func: "__ctor"}, {Func: "f", Args: []byte{1, 2}, Sender: 1}}
	h := func(s Sequence) uint64 { return hashPrefix(s, 2) }
	hashes := map[uint64]string{}
	for name, s := range map[string]Sequence{"a": a, "b": b, "c": c, "d": d, "e": e} {
		hv := h(s)
		if prev, dup := hashes[hv]; dup {
			t.Errorf("hash collision between %s and %s", prev, name)
		}
		hashes[hv] = name
	}
	// prefix length participates
	if hashPrefix(a, 1) == hashPrefix(a, 2) {
		t.Error("different prefix lengths must hash differently")
	}
	// identical prefixes hash equal regardless of suffix
	long := append(a.Clone(), TxInput{Func: "tail"})
	if hashPrefix(a, 2) != hashPrefix(long, 2) {
		t.Error("same prefix must hash equal under different suffixes")
	}
}

// TestPrefixCacheFIFOEviction pins the eviction policy: a full cache evicts
// its oldest entry, whatever the keys.
func TestPrefixCacheFIFOEviction(t *testing.T) {
	pc := newPrefixCache(2)
	for _, k := range []uint64{3, 19, 35} {
		pc.storeKeyed(k, 1, nil, nil, nil)
	}
	if pc.len() != 2 {
		t.Errorf("cache size = %d, want 2 (FIFO eviction)", pc.len())
	}
	if pc.contains(3) {
		t.Error("oldest entry should have been evicted")
	}
	if !pc.contains(19) || !pc.contains(35) {
		t.Error("newer entries must remain")
	}
	pc.storeKeyed(4, 1, nil, nil, nil) // evicts 19
	if pc.contains(19) || !pc.contains(35) || !pc.contains(4) {
		t.Error("FIFO should have evicted the second-oldest entry only")
	}
}

// TestPrefixCacheCollisionKeying pins the txs guard in lookup: an entry
// stored under a hash that collides with a different prefix length must not
// be served for that length.
func TestPrefixCacheCollisionKeying(t *testing.T) {
	seq := Sequence{{Func: "__ctor"}, {Func: "f"}, {Func: "g"}}
	// Simulate an fnv collision: the hash of the 2-tx prefix maps to an
	// entry that checkpoints only 1 transaction.
	collided := hashPrefix(seq, 2)
	pc := newPrefixCache(8)
	pc.storeKeyed(collided, 1, state.New(), nil, nil)
	if e := pc.lookup(seq); e != nil {
		t.Errorf("lookup served a collided entry (txs=%d) for a 2-tx prefix", e.txs)
	}
	hits, misses := pc.stats()
	if hits != 0 || misses != 1 {
		t.Errorf("stats = %d/%d, want 0 hits / 1 miss", hits, misses)
	}
	// A correctly keyed entry is served.
	pc.storeKeyed(hashPrefix(seq, 2), 2, state.New(), nil, nil)
	// (same key — the collided entry occupies it, so lookup still rejects)
	if pc.contains(collided) && pc.lookup(seq) != nil {
		t.Error("occupied colliding key must stay rejected, not overwritten")
	}
}

func TestNilPrefixCacheSafe(t *testing.T) {
	var pc *prefixCache
	if pc.lookup(Sequence{{Func: "x"}, {Func: "y"}}) != nil {
		t.Error("nil cache lookup must miss")
	}
	pc.storeKeyed(1, 1, nil, nil, nil) // must not panic
	if pc.contains(1) {
		t.Error("nil cache contains nothing")
	}
	if pc.len() != 0 {
		t.Error("nil cache is empty")
	}
	h, m := pc.stats()
	if h != 0 || m != 0 {
		t.Error("nil cache has no stats")
	}
}

// The decisive property: a campaign with the checkpoint cache must produce
// exactly the same coverage, findings, and execution count as one without —
// the cache is a pure performance optimization.
func TestPrefixCacheEquivalence(t *testing.T) {
	for _, src := range []string{crowdsaleSrc} {
		comp := mustCompile(t, src)
		for seed := int64(1); seed <= 3; seed++ {
			with := Run(comp, Options{Strategy: MuFuzz(), Seed: seed, Iterations: 600})
			without := Run(comp, Options{Strategy: MuFuzz(), Seed: seed, Iterations: 600, NoPrefixCache: true})
			if with.CoveredEdges != without.CoveredEdges {
				t.Errorf("seed %d: coverage diverges with cache: %d vs %d",
					seed, with.CoveredEdges, without.CoveredEdges)
			}
			if len(with.Findings) != len(without.Findings) {
				t.Errorf("seed %d: findings diverge: %d vs %d",
					seed, len(with.Findings), len(without.Findings))
			}
			if with.Executions != without.Executions {
				t.Errorf("seed %d: executions diverge: %d vs %d",
					seed, with.Executions, without.Executions)
			}
		}
	}
}

// txCounter counts the transactions of every folded execution.
type txCounter struct{ txs int }

func (o *txCounter) OnExec(r ExecRecord) { o.txs += len(r.Seq) }

// TestPrefixCacheGetsHits is the count gate on the checkpoint store policy.
// On crowdsale-buggy at seed 1 the counts repeat exactly, so
// three of them are pinned close to their measured values: the hit ratio, the
// share of transactions served from checkpoints instead of re-run, and stores
// per 1,000 executions. When each execution stored its own longest uncached
// prefix, which no sibling shared, the same campaign read hits 0.151, 9.3%
// of transactions served and 774 stores per 1,000 executions.
func TestPrefixCacheGetsHits(t *testing.T) {
	comp := mustCompile(t, corpus.CrowdsaleBuggy())
	obs := &txCounter{}
	c := NewCampaign(comp, Options{Strategy: MuFuzz(), Seed: 1, Iterations: 20_000, Observer: obs})
	res := c.Run()
	hits, misses := c.PrefixCacheStats()
	hitRatio := float64(hits) / float64(hits+misses)
	served := float64(c.prefixes.served) / float64(obs.txs)
	storesPerK := 1000 * float64(c.prefixes.stores) / float64(res.Executions)
	t.Logf("prefix cache over %d execs: hit ratio %.4f, %.2f%% of %d txs served, %.2f stores per 1,000 execs",
		res.Executions, hitRatio, 100*served, obs.txs, storesPerK)
	if hitRatio < 0.995 {
		t.Errorf("hit ratio %.3f, want at least 0.995", hitRatio)
	}
	if served < 0.40 {
		t.Errorf("%.3f of transactions served from checkpoints, want at least 0.40", served)
	}
	if storesPerK > 1.5 {
		t.Errorf("%.1f stores per 1,000 executions, want at most 1.5", storesPerK)
	}
}

// seedTableSequence returns a crowdsale-buggy campaign that has not run yet
// and its initial sequence, at least three transactions long.
func seedTableSequence(t *testing.T) (*Campaign, Sequence) {
	t.Helper()
	c := NewCampaign(mustCompile(t, corpus.CrowdsaleBuggy()), Options{Strategy: MuFuzz(), Seed: 4, Iterations: 100})
	seq := c.initialSequence()
	if len(seq) < 3 {
		t.Fatalf("initial sequence has %d transactions, want at least 3", len(seq))
	}
	return c, seq
}

// TestSeedRunCachesEveryProperPrefix pins the store side of the seed-prefix
// policy: a run of the round's seed against its own table checkpoints every
// proper prefix, each keyed by its length.
func TestSeedRunCachesEveryProperPrefix(t *testing.T) {
	c, seq := seedTableSequence(t)
	c.exec.run(seq, prefixHashes(seq, nil))
	if got := c.prefixes.len(); got != len(seq)-1 {
		t.Errorf("cache holds %d entries after the seed run, want %d", got, len(seq)-1)
	}
	for n := 1; n < len(seq); n++ {
		e := c.prefixes.entries[hashPrefix(seq, n)]
		if e == nil || e.txs != n {
			t.Errorf("prefix of %d transactions not stored", n)
		}
	}
}

// TestChildResumesAtFirstMutation pins the resume side: after the seed run,
// a child whose first difference from the seed is at transaction k resumes
// from the seed's checkpoint after exactly k transactions and stores nothing
// new, whatever follows k.
func TestChildResumesAtFirstMutation(t *testing.T) {
	c, seq := seedTableSequence(t)
	table := prefixHashes(seq, nil)
	c.exec.run(seq, table)
	stores := c.prefixes.stores
	for k := 1; k < len(seq); k++ {
		child := append(seq.Clone(), TxInput{Func: seq[1].Func, Args: seq[1].Args})
		child[k].Value = child[k].Value.Add(u256.One)
		if out := c.exec.run(child, table); out.firstLive != k {
			t.Errorf("child mutated at %d resumed at %d", k, out.firstLive)
		}
	}
	if got := c.prefixes.stores; got != stores {
		t.Errorf("children stored %d checkpoints, want none", got-stores)
	}
}

// TestRunWithoutSeedTableStoresNothing pins that only round executions
// checkpoint: a run with no table, and a sequence injected between slices,
// leave the cache empty.
func TestRunWithoutSeedTableStoresNothing(t *testing.T) {
	c, seq := seedTableSequence(t)
	c.exec.run(seq, nil)
	if c.InjectSequences([]Sequence{seq}) != 1 {
		t.Fatal("injected sequence did not run")
	}
	if n := c.prefixes.len(); n != 0 {
		t.Errorf("runs without a seed table stored %d checkpoints", n)
	}
}

// stampSrc stores block.timestamp in one transaction and branches on the
// stored value in another, so the branch's timestamp sink needs the taint
// the first left in storage.
const stampSrc = `contract Stamp {
	uint256 t;
	function stamp() public { t = block.timestamp; }
	function check() public { if (t > 5) { t = 1; } }
}`

// TestResumedChildRecordsGenesisSinks pins that a checkpoint carries storage
// taint: a child resumed from the checkpoint after a TIMESTAMP-storing
// transaction records the same sinks and oracle reports as its replay from
// genesis, a timestamp sink among them.
func TestResumedChildRecordsGenesisSinks(t *testing.T) {
	c := NewCampaign(mustCompile(t, stampSrc), Options{Strategy: MuFuzz(), Seed: 1, Iterations: 1})
	seq := Sequence{{Func: minisol.CtorName}, {Func: "stamp"}, {Func: "check"}}
	table := prefixHashes(seq, nil)
	c.exec.run(seq, table)
	resumed := c.exec.run(seq, table)
	if resumed.firstLive != 2 {
		t.Fatalf("child resumed at %d, want at the checkpoint after stamp (2)", resumed.firstLive)
	}
	sinks := append([]evm.TaintSink(nil), c.exec.trace.Sinks...)
	x := c.exec.detached()
	genesis := x.run(seq, nil)
	found := false
	for _, s := range sinks {
		found = found || s.Taint.Has(evm.TaintTimestamp)
	}
	if !found {
		t.Fatalf("the resumed check recorded no timestamp sink: %v", sinks)
	}
	if !reflect.DeepEqual(sinks, x.trace.Sinks) {
		t.Errorf("resumed check recorded sinks %v, its replay from genesis %v", sinks, x.trace.Sinks)
	}
	if !reflect.DeepEqual(resumed.reports, genesis.reports) {
		t.Errorf("resumed run reports %v, replay from genesis %v", resumed.reports, genesis.reports)
	}
}
