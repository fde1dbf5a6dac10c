// Package state implements the Ethereum world state the EVM executes
// against: accounts with balances, code, and key-value Storage, plus
// journaled snapshots so a fuzzing campaign can cheaply roll back failed
// transactions and replay sequences from a clean deployment.
//
// Smart contracts are stateful programs (paper §I): the whole point of
// sequence-aware fuzzing is that persistent Storage survives between
// transactions. This package is that persistence layer.
//
// # Copy-on-write forks
//
// The fuzzing engine checkpoints world states constantly: every transaction
// boundary of every executed sequence may become a prefix-cache entry, and
// every execution starts from a checkpoint or from genesis. Fork supports
// that access pattern in O(accounts) pointer copies instead of a deep copy:
// parent and child share account and storage data, and a generation tag on
// every account makes either side clone an account privately the first time
// it writes it after the fork. Copy remains the semantic specification — a
// Fork must be observationally identical to a Copy — and the tests assert
// the two stay in lockstep.
//
// # Storage tags
//
// Each storage slot holds a 16-bit tag next to its value: the EVM keeps its
// taint bits there, so taint written to storage in one transaction reaches
// the next (paper §IV-D), and a fork or copy carries it with the values.
// The state stores tags and never interprets them. A revert restores a
// slot's value but keeps its tag, and a zero-valued slot keeps its entry
// while it holds a tag; StorageSize, StorageDump and AccountEqual see values
// only.
package state

import (
	"encoding/binary"
	"fmt"
	"maps"
	"sort"
	"sync/atomic"

	"mufuzz/internal/u256"
)

// Address is a 20-byte account address.
type Address [20]byte

// AddressFromUint derives a deterministic address from an integer; handy for
// test and fuzzing identities.
func AddressFromUint(v uint64) Address {
	var a Address
	for i := 0; i < 8; i++ {
		a[19-i] = byte(v >> (8 * i))
	}
	return a
}

// AddressFromWord truncates a 256-bit word to its low 20 bytes.
func AddressFromWord(w u256.Int) Address {
	b := w.Bytes32()
	var a Address
	copy(a[:], b[12:])
	return a
}

// Word widens the address back to a 256-bit word.
func (a Address) Word() u256.Int {
	return u256.FromBytes(a[:])
}

// String formats the address as 0x-prefixed hex.
func (a Address) String() string {
	return fmt.Sprintf("0x%x", a[:])
}

// Account is one entry in the world state.
type Account struct {
	Balance u256.Int
	Code    []byte
	storage map[u256.Int]cell
	// Creator is the address that deployed the account's code. Oracles use
	// it to decide whether a caller is the legitimate owner (e.g. the US and
	// UD oracles, paper §IV-D).
	Creator Address
	// Destroyed marks the account as self-destructed.
	Destroyed bool

	// gen tags the State generation that owns this struct: only the state
	// whose generation matches may mutate it in place. After a Fork no live
	// state matches, so the first writer clones the account privately.
	gen uint64
	// storageOwned marks storage as exclusively owned by this struct. A
	// cloned account initially shares its parent's storage map; the first
	// storage write copies it (storage-level copy-on-write, so balance-only
	// writes — value transfers — never pay for a storage copy).
	storageOwned bool
}

// cell is one storage slot: its value and its tag.
type cell struct {
	val u256.Int
	tag uint16
}

// cloneFor returns a private shallow clone owned by generation g. The clone
// shares the (immutable) code slice and the storage map; storageOwned=false
// defers the storage copy until the first storage write.
func (acc *Account) cloneFor(g uint64) *Account {
	na := *acc
	na.gen = g
	na.storageOwned = false
	return &na
}

// genCounter issues unique generations across a whole fork family. It is
// atomic so concurrent Forks of one frozen state (e.g. parallel executors
// resuming from the same checkpoint entry) stay race-free.
type genCounter struct{ n atomic.Uint64 }

func (g *genCounter) next() uint64 { return g.n.Add(1) }

// journalEntry records one reversible state change.
type journalEntry struct {
	kind    journalKind
	addr    Address
	slot    u256.Int
	prevVal u256.Int
	prevBal u256.Int
	created bool // account did not exist before
	prevDes bool
}

type journalKind uint8

const (
	jStorage journalKind = iota
	jBalance
	jCreate
	jDestroy
)

// accountSlot pairs an address with its account. The world state holds a
// handful of accounts (deployer, attacker, senders, contracts), so a flat
// slice with linear lookup beats a hash map on every access — and makes
// Fork/ForkInto a single memcpy instead of a map rebuild. The scan compares
// tag, the address's last eight bytes, before the whole address, so a miss
// costs one integer compare instead of a 20-byte one.
type accountSlot struct {
	tag  uint64
	addr Address
	acc  *Account
}

// addrTag returns the tag of addr's slot: its last eight bytes, where
// AddressFromUint addresses differ.
func addrTag(addr Address) uint64 {
	return binary.LittleEndian.Uint64(addr[12:])
}

// State is the mutable world state with snapshot/revert support and O(1)
// copy-on-write forking.
type State struct {
	accounts []accountSlot
	journal  []journalEntry
	// gen is the write generation: accounts whose tag matches may be mutated
	// in place, anything else is shared with a fork and cloned first. It is
	// atomic only so Fork can retire a frozen state's generation from
	// several goroutines at once; ordinary reads and writes of the state
	// itself are single-goroutine, like before.
	gen    atomic.Uint64
	family *genCounter
}

// New returns an empty world state.
func New() *State {
	s := &State{family: &genCounter{}}
	s.gen.Store(s.family.next())
	return s
}

// find returns the account at addr, or nil if absent.
func (s *State) find(addr Address) *Account {
	if i := s.findIdx(addr); i >= 0 {
		return s.accounts[i].acc
	}
	return nil
}

// findIdx returns the slot index of addr, or -1 if absent.
func (s *State) findIdx(addr Address) int {
	tag := addrTag(addr)
	for i := range s.accounts {
		if s.accounts[i].tag == tag && s.accounts[i].addr == addr {
			return i
		}
	}
	return -1
}

// Fork returns a child state observationally identical to the receiver, in
// O(accounts) pointer copies: account structs and storage maps are shared,
// and the generation tags force whichever side writes first to clone the
// touched account privately. The child starts with an empty journal.
//
// Fork retires the receiver's write generation, so the receiver keeps full
// read/write semantics too — its next write to any shared account clones it.
// Fork may be called concurrently from multiple goroutines on a state that
// is not being mutated (a frozen checkpoint); it must not race with writes
// to the receiver.
func (s *State) Fork() *State {
	child := &State{
		accounts: append([]accountSlot(nil), s.accounts...),
		family:   s.family,
	}
	child.gen.Store(s.family.next())
	s.gen.Store(s.family.next())
	return child
}

// ForkInto forks the receiver into an existing child state, reusing the
// child's account map and journal capacity instead of allocating fresh ones.
// Semantically identical to Fork — the returned state is observationally a
// Fork of s — but the child's previous contents are discarded, so it must
// only be used on a scratch state nothing else references (the fuzzing
// executors' per-worker working state, re-forked from a frozen checkpoint on
// every execution). The child must belong to the same fork family as s;
// a mismatched child falls back to a plain Fork.
func (s *State) ForkInto(child *State) *State {
	if child == nil || child.family != s.family || child == s {
		return s.Fork()
	}
	child.accounts = append(child.accounts[:0], s.accounts...)
	child.journal = child.journal[:0]
	child.gen.Store(s.family.next())
	s.gen.Store(s.family.next())
	return child
}

// mutableAt returns the account at addr cloned for in-place mutation if it
// is still shared with a fork. It must only be called for existing accounts
// (the revert path).
func (s *State) mutableAt(addr Address) *Account {
	i := s.findIdx(addr)
	acc := s.accounts[i].acc
	if g := s.gen.Load(); acc.gen != g {
		acc = acc.cloneFor(g)
		s.accounts[i].acc = acc
	}
	return acc
}

// mutableOrCreate returns a writable account, creating (and journaling) it
// if needed and cloning it first when it is shared with a fork.
func (s *State) mutableOrCreate(addr Address) *Account {
	i := s.findIdx(addr)
	if i < 0 {
		acc := &Account{
			storage:      make(map[u256.Int]cell),
			gen:          s.gen.Load(),
			storageOwned: true,
		}
		s.accounts = append(s.accounts, accountSlot{tag: addrTag(addr), addr: addr, acc: acc})
		s.journal = append(s.journal, journalEntry{kind: jCreate, addr: addr, created: true})
		return acc
	}
	acc := s.accounts[i].acc
	if g := s.gen.Load(); acc.gen != g {
		acc = acc.cloneFor(g)
		s.accounts[i].acc = acc
	}
	return acc
}

// ownedStorage returns acc.storage guaranteed private to acc, copying a
// shared map on first storage write after a fork.
func (s *State) ownedStorage(acc *Account) map[u256.Int]cell {
	if !acc.storageOwned {
		acc.storage = maps.Clone(acc.storage)
		acc.storageOwned = true
	}
	return acc.storage
}

// setCell stores c at key in st, dropping the entry once it holds neither a
// value nor a tag.
func setCell(st map[u256.Int]cell, key u256.Int, c cell) {
	if c == (cell{}) {
		delete(st, key)
	} else {
		st[key] = c
	}
}

// Exists reports whether an account is present.
func (s *State) Exists(addr Address) bool {
	return s.find(addr) != nil
}

// CreateContract installs code at addr, recording its creator.
func (s *State) CreateContract(addr Address, code []byte, creator Address) {
	acc := s.mutableOrCreate(addr)
	acc.Code = code
	acc.Creator = creator
}

// Code returns the code at addr (nil for absent accounts).
func (s *State) Code(addr Address) []byte {
	if acc := s.find(addr); acc != nil && !acc.Destroyed {
		return acc.Code
	}
	return nil
}

// Creator returns the deployer of addr.
func (s *State) Creator(addr Address) Address {
	if acc := s.find(addr); acc != nil {
		return acc.Creator
	}
	return Address{}
}

// GetStorage reads a storage slot's value and tag (zero for absent slots).
func (s *State) GetStorage(addr Address, slot u256.Int) (u256.Int, uint16) {
	if acc := s.find(addr); acc != nil {
		c := acc.storage[slot]
		return c.val, c.tag
	}
	return u256.Zero, 0
}

// SetStorage writes a storage slot's value and tag, journaling the previous
// value. The tag is not journaled: a revert keeps it.
func (s *State) SetStorage(addr Address, slot, val u256.Int, tag uint16) {
	acc := s.mutableOrCreate(addr)
	s.journal = append(s.journal, journalEntry{kind: jStorage, addr: addr, slot: slot, prevVal: acc.storage[slot].val})
	setCell(s.ownedStorage(acc), slot, cell{val: val, tag: tag})
}

// Balance returns the balance of addr.
func (s *State) Balance(addr Address) u256.Int {
	if acc := s.find(addr); acc != nil {
		return acc.Balance
	}
	return u256.Zero
}

// SetBalance overwrites the balance of addr, journaling the previous value.
func (s *State) SetBalance(addr Address, bal u256.Int) {
	acc := s.mutableOrCreate(addr)
	s.journal = append(s.journal, journalEntry{kind: jBalance, addr: addr, prevBal: acc.Balance})
	acc.Balance = bal
}

// AddBalance credits addr by amount (wrapping per EVM semantics).
func (s *State) AddBalance(addr Address, amount u256.Int) {
	s.SetBalance(addr, s.Balance(addr).Add(amount))
}

// Transfer moves value from one account to another. It returns false (and
// leaves state untouched) when the sender balance is insufficient.
func (s *State) Transfer(from, to Address, value u256.Int) bool {
	if value.IsZero() {
		return true
	}
	bal := s.Balance(from)
	if bal.Lt(value) {
		return false
	}
	s.SetBalance(from, bal.Sub(value))
	s.AddBalance(to, value)
	return true
}

// Destroy marks addr self-destructed and moves its balance to beneficiary.
func (s *State) Destroy(addr, beneficiary Address) {
	acc := s.mutableOrCreate(addr)
	s.journal = append(s.journal, journalEntry{kind: jDestroy, addr: addr, prevDes: acc.Destroyed, prevBal: acc.Balance})
	if !acc.Destroyed {
		s.AddBalance(beneficiary, acc.Balance)
		// Direct mutation: the balance restore is handled by the jDestroy
		// entry. acc is writable (mutableOrCreate above), and when the
		// beneficiary aliases addr, AddBalance returns the same clone.
		acc.Balance = u256.Zero
		acc.Destroyed = true
	}
}

// Destroyed reports whether addr has self-destructed.
func (s *State) Destroyed(addr Address) bool {
	if acc := s.find(addr); acc != nil {
		return acc.Destroyed
	}
	return false
}

// Snapshot returns a revision token for the current state.
func (s *State) Snapshot() int {
	return len(s.journal)
}

// RevertTo undoes every change after the given snapshot token.
func (s *State) RevertTo(snap int) {
	if snap < 0 || snap > len(s.journal) {
		panic(fmt.Sprintf("state: invalid snapshot %d (journal %d)", snap, len(s.journal)))
	}
	for i := len(s.journal) - 1; i >= snap; i-- {
		e := s.journal[i]
		switch e.kind {
		case jStorage:
			st := s.ownedStorage(s.mutableAt(e.addr))
			c := st[e.slot]
			c.val = e.prevVal
			setCell(st, e.slot, c)
		case jBalance:
			s.mutableAt(e.addr).Balance = e.prevBal
		case jCreate:
			if i := s.findIdx(e.addr); i >= 0 {
				s.accounts = append(s.accounts[:i], s.accounts[i+1:]...)
			}
		case jDestroy:
			acc := s.mutableAt(e.addr)
			acc.Destroyed = e.prevDes
			acc.Balance = e.prevBal
		}
	}
	s.journal = s.journal[:snap]
}

// Commit discards journal history, making all changes permanent. Snapshot
// tokens taken before Commit become invalid.
func (s *State) Commit() {
	s.journal = s.journal[:0]
}

// Copy returns a deep copy sharing nothing with the receiver. The copy has
// an empty journal. Copy is the semantic specification Fork is tested
// against; the engine's hot paths use Fork.
func (s *State) Copy() *State {
	ns := New()
	g := ns.gen.Load()
	for _, slot := range s.accounts {
		acc := slot.acc
		na := &Account{
			Balance:      acc.Balance,
			Code:         append([]byte(nil), acc.Code...),
			storage:      make(map[u256.Int]cell, len(acc.storage)),
			Creator:      acc.Creator,
			Destroyed:    acc.Destroyed,
			gen:          g,
			storageOwned: true,
		}
		maps.Copy(na.storage, acc.storage)
		ns.accounts = append(ns.accounts, accountSlot{tag: slot.tag, addr: slot.addr, acc: na})
	}
	return ns
}

// Accounts returns all addresses in deterministic order.
func (s *State) Accounts() []Address {
	out := make([]Address, 0, len(s.accounts))
	for _, slot := range s.accounts {
		out = append(out, slot.addr)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := 0; k < len(out[i]); k++ {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// StorageSize returns the number of non-zero slots at addr.
func (s *State) StorageSize(addr Address) int {
	return len(s.StorageDump(addr))
}

// StorageDump returns a copy of every non-zero storage slot at addr, for
// diagnostics and state-equality checks in tests.
func (s *State) StorageDump(addr Address) map[u256.Int]u256.Int {
	acc := s.find(addr)
	if acc == nil {
		return nil
	}
	out := make(map[u256.Int]u256.Int, len(acc.storage))
	for k, c := range acc.storage {
		if !c.val.IsZero() {
			out[k] = c.val
		}
	}
	return out
}

// StorageTags returns every nonzero storage tag at addr, zero-valued slots
// included, for state-equality checks in tests.
func (s *State) StorageTags(addr Address) map[u256.Int]uint16 {
	acc := s.find(addr)
	if acc == nil {
		return nil
	}
	out := make(map[u256.Int]uint16)
	for k, c := range acc.storage {
		if c.tag != 0 {
			out[k] = c.tag
		}
	}
	return out
}

// AccountEqual reports whether addr holds the same observable account state
// in s and o: balance, destroyed flag, and every storage slot. It is the
// comparison primitive of the reentrancy state-divergence check — two
// replays of one schedule (attacker present vs absent) are compared account
// by account, and any difference witnesses that the reentrant interleaving
// changed the outcome. Zero-valued slots and missing accounts compare equal,
// matching EVM semantics, and tags are not compared.
func (s *State) AccountEqual(o *State, addr Address) bool {
	if !s.Balance(addr).Eq(o.Balance(addr)) {
		return false
	}
	if s.Destroyed(addr) != o.Destroyed(addr) {
		return false
	}
	sa, oa := s.find(addr), o.find(addr)
	var sst, ost map[u256.Int]cell
	if sa != nil {
		sst = sa.storage
	}
	if oa != nil {
		ost = oa.storage
	}
	for k, c := range sst {
		if !ost[k].val.Eq(c.val) {
			return false
		}
	}
	for k, c := range ost {
		if !sst[k].val.Eq(c.val) {
			return false
		}
	}
	return true
}
