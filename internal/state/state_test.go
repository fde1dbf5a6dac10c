package state

import (
	"testing"
	"testing/quick"

	"mufuzz/internal/u256"
)

func TestAddressConversions(t *testing.T) {
	a := AddressFromUint(0xdeadbeef)
	if got := AddressFromWord(a.Word()); got != a {
		t.Errorf("round trip failed: %v vs %v", got, a)
	}
	w := u256.Max
	a2 := AddressFromWord(w)
	if a2.Word().BitLen() > 160 {
		t.Error("AddressFromWord should truncate to 160 bits")
	}
}

// TestAccountsSharingATagStayApart pins that the lookup tag only filters:
// addresses that agree in their last eight bytes, the tag, are still
// separate accounts, through writes, forks, copies and reverts.
func TestAccountsSharingATagStayApart(t *testing.T) {
	a := AddressFromUint(0xc0de)
	b := a
	b[0] = 1
	c := a
	c[11] = 1
	s := New()
	s.SetBalance(a, u256.New(1))
	s.SetBalance(b, u256.New(2))
	s.Commit()
	snap := s.Snapshot()
	s.SetBalance(c, u256.New(3))
	s.SetStorage(b, u256.One, u256.New(9), 0)
	for _, st := range []*State{s, s.Fork(), s.Copy()} {
		for addr, want := range map[Address]uint64{a: 1, b: 2, c: 3} {
			if got := st.Balance(addr); !got.Eq(u256.New(want)) {
				t.Errorf("balance of %s = %s, want %d", addr, got, want)
			}
		}
		if st.StorageSize(a) != 0 || st.StorageSize(c) != 0 || !value(st, b, u256.One).Eq(u256.New(9)) {
			t.Errorf("storage write to %s leaked to an account sharing its tag", b)
		}
	}
	s.RevertTo(snap)
	if s.Exists(c) || !s.Balance(b).Eq(u256.New(2)) || s.StorageSize(b) != 0 {
		t.Error("revert did not undo exactly the writes to the tag-sharing accounts")
	}
	if got := len(s.Accounts()); got != 2 {
		t.Errorf("%d accounts after revert, want 2", got)
	}
}

// value reads a storage slot's value alone.
func value(s *State, addr Address, slot u256.Int) u256.Int {
	v, _ := s.GetStorage(addr, slot)
	return v
}

// TestStorageTags pins the tag rules: a write stores value and tag
// together, a revert restores the value and keeps the tag, a zero-valued
// slot keeps its entry while it holds a tag and drops it once it holds
// none, and such a slot is invisible to StorageSize, StorageDump and
// AccountEqual, in the state and in its forks and copies.
func TestStorageTags(t *testing.T) {
	a := AddressFromUint(1)
	k, k2 := u256.New(3), u256.New(4)
	s := New()
	s.SetStorage(a, k, u256.New(7), 2)
	snap := s.Snapshot()
	s.SetStorage(a, k, u256.New(9), 5)
	s.RevertTo(snap)
	if v, tag := s.GetStorage(a, k); !v.Eq(u256.New(7)) || tag != 5 {
		t.Errorf("after revert: value %s tag %d, want 7 and the reverted write's tag 5", v, tag)
	}

	ref := New()
	ref.SetBalance(a, u256.Zero)
	z := New()
	z.SetStorage(a, k, u256.Zero, 1)
	snap = z.Snapshot()
	z.SetStorage(a, k2, u256.New(8), 6)
	z.RevertTo(snap)
	for i, st := range []*State{z, z.Fork(), z.Copy()} {
		if v, tag := st.GetStorage(a, k); !v.IsZero() || tag != 1 {
			t.Errorf("state %d: zero write: value %s tag %d, want 0 and 1", i, v, tag)
		}
		if v, tag := st.GetStorage(a, k2); !v.IsZero() || tag != 6 {
			t.Errorf("state %d: reverted write: value %s tag %d, want 0 and 6", i, v, tag)
		}
		if len(st.StorageTags(a)) != 2 {
			t.Errorf("state %d: tags %v, want both zero-valued slots", i, st.StorageTags(a))
		}
		if st.StorageSize(a) != 0 || len(st.StorageDump(a)) != 0 || !st.AccountEqual(ref, a) || !ref.AccountEqual(st, a) {
			t.Errorf("state %d: a zero-valued tagged slot is visible: size %d dump %v", i, st.StorageSize(a), st.StorageDump(a))
		}
	}
	z.SetStorage(a, k, u256.Zero, 0)
	if tags := z.StorageTags(a); len(tags) != 1 || tags[k2] != 6 {
		t.Errorf("tags after an untagged zero write %v, want only slot 4", tags)
	}
}

func TestStorageReadWrite(t *testing.T) {
	s := New()
	addr := AddressFromUint(1)
	slot := u256.New(42)
	if !value(s, addr, slot).IsZero() {
		t.Error("absent slot should read zero")
	}
	s.SetStorage(addr, slot, u256.New(7), 0)
	if !value(s, addr, slot).Eq(u256.New(7)) {
		t.Error("storage write lost")
	}
	s.SetStorage(addr, slot, u256.Zero, 0)
	if s.StorageSize(addr) != 0 {
		t.Error("zero write should delete slot")
	}
}

func TestSnapshotRevert(t *testing.T) {
	s := New()
	a := AddressFromUint(1)
	b := AddressFromUint(2)
	s.SetBalance(a, u256.New(100))
	s.SetStorage(a, u256.New(1), u256.New(11), 0)
	s.Commit()

	snap := s.Snapshot()
	s.SetStorage(a, u256.New(1), u256.New(22), 0)
	s.SetStorage(a, u256.New(2), u256.New(33), 0)
	s.SetBalance(b, u256.New(5))
	s.Transfer(a, b, u256.New(50))
	if !s.Balance(b).Eq(u256.New(55)) {
		t.Fatalf("balance b = %s", s.Balance(b))
	}
	s.RevertTo(snap)

	if !value(s, a, u256.New(1)).Eq(u256.New(11)) {
		t.Error("slot 1 not reverted")
	}
	if !value(s, a, u256.New(2)).IsZero() {
		t.Error("slot 2 not reverted")
	}
	if !s.Balance(a).Eq(u256.New(100)) {
		t.Errorf("balance a = %s, want 100", s.Balance(a))
	}
	if s.Exists(b) {
		t.Error("account b should have been un-created")
	}
}

func TestNestedSnapshots(t *testing.T) {
	s := New()
	a := AddressFromUint(1)
	s.SetStorage(a, u256.New(0), u256.New(1), 0)
	outer := s.Snapshot()
	s.SetStorage(a, u256.New(0), u256.New(2), 0)
	inner := s.Snapshot()
	s.SetStorage(a, u256.New(0), u256.New(3), 0)
	s.RevertTo(inner)
	if !value(s, a, u256.New(0)).Eq(u256.New(2)) {
		t.Error("inner revert wrong")
	}
	s.RevertTo(outer)
	if !value(s, a, u256.New(0)).Eq(u256.New(1)) {
		t.Error("outer revert wrong")
	}
}

func TestTransferInsufficient(t *testing.T) {
	s := New()
	a, b := AddressFromUint(1), AddressFromUint(2)
	s.SetBalance(a, u256.New(10))
	if s.Transfer(a, b, u256.New(11)) {
		t.Error("transfer should fail")
	}
	if !s.Balance(a).Eq(u256.New(10)) || !s.Balance(b).IsZero() {
		t.Error("failed transfer must not move funds")
	}
	if !s.Transfer(a, b, u256.New(10)) {
		t.Error("transfer should succeed")
	}
	if !s.Transfer(a, b, u256.Zero) {
		t.Error("zero transfer always succeeds")
	}
}

func TestDestroyAndRevert(t *testing.T) {
	s := New()
	c := AddressFromUint(9)
	ben := AddressFromUint(10)
	s.CreateContract(c, []byte{0x60}, AddressFromUint(1))
	s.SetBalance(c, u256.New(77))
	s.Commit()

	snap := s.Snapshot()
	s.Destroy(c, ben)
	if !s.Destroyed(c) {
		t.Fatal("not destroyed")
	}
	if !s.Balance(ben).Eq(u256.New(77)) {
		t.Fatal("beneficiary not credited")
	}
	if s.Code(c) != nil {
		t.Fatal("destroyed contract should expose no code")
	}
	s.RevertTo(snap)
	if s.Destroyed(c) {
		t.Error("destroy not reverted")
	}
	if !s.Balance(c).Eq(u256.New(77)) {
		t.Errorf("balance not restored: %s", s.Balance(c))
	}
	if s.Code(c) == nil {
		t.Error("code should be visible again")
	}
}

func TestCreatorTracking(t *testing.T) {
	s := New()
	deployer := AddressFromUint(5)
	c := AddressFromUint(6)
	s.CreateContract(c, []byte{1}, deployer)
	if s.Creator(c) != deployer {
		t.Error("creator lost")
	}
}

func TestCopyIsDeep(t *testing.T) {
	s := New()
	a := AddressFromUint(1)
	s.CreateContract(a, []byte{1, 2, 3}, AddressFromUint(0))
	s.SetStorage(a, u256.New(1), u256.New(9), 0)
	s.SetBalance(a, u256.New(4))

	cp := s.Copy()
	cp.SetStorage(a, u256.New(1), u256.New(100), 0)
	cp.SetBalance(a, u256.New(200))
	cp.Code(a)[0] = 0xff

	if !value(s, a, u256.New(1)).Eq(u256.New(9)) {
		t.Error("copy shares storage")
	}
	if !s.Balance(a).Eq(u256.New(4)) {
		t.Error("copy shares balance")
	}
	if s.Code(a)[0] != 1 {
		t.Error("copy shares code slice")
	}
}

func TestAccountsDeterministicOrder(t *testing.T) {
	s := New()
	for i := 10; i > 0; i-- {
		s.SetBalance(AddressFromUint(uint64(i)), u256.New(1))
	}
	got := s.Accounts()
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		less := false
		for k := 0; k < len(a); k++ {
			if a[k] != b[k] {
				less = a[k] < b[k]
				break
			}
		}
		if !less {
			t.Fatal("Accounts not sorted")
		}
	}
}

// Property: revert after arbitrary operations restores the prior observable
// state for the touched addresses.
func TestRevertRestoresProperty(t *testing.T) {
	f := func(ops []uint8, vals []uint8) bool {
		s := New()
		a := AddressFromUint(1)
		s.SetBalance(a, u256.New(1000))
		s.SetStorage(a, u256.New(0), u256.New(5), 0)
		s.Commit()
		beforeBal := s.Balance(a)
		beforeSlot := value(s, a, u256.New(0))

		snap := s.Snapshot()
		for i, op := range ops {
			v := u256.New(uint64(i%7 + 1))
			if i < len(vals) {
				v = u256.New(uint64(vals[i]))
			}
			switch op % 4 {
			case 0:
				s.SetStorage(a, u256.New(uint64(op%3)), v, 0)
			case 1:
				s.SetBalance(a, v)
			case 2:
				s.Transfer(a, AddressFromUint(uint64(op)), v)
			case 3:
				s.Destroy(a, AddressFromUint(2))
			}
		}
		s.RevertTo(snap)
		return s.Balance(a).Eq(beforeBal) &&
			value(s, a, u256.New(0)).Eq(beforeSlot) &&
			!s.Destroyed(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRevertToInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid snapshot")
		}
	}()
	New().RevertTo(5)
}

func BenchmarkSnapshotRevert(b *testing.B) {
	s := New()
	a := AddressFromUint(1)
	s.SetBalance(a, u256.New(1000))
	s.Commit()
	for i := 0; i < b.N; i++ {
		snap := s.Snapshot()
		for j := 0; j < 16; j++ {
			s.SetStorage(a, u256.New(uint64(j)), u256.New(uint64(i)), 0)
		}
		s.RevertTo(snap)
	}
}
