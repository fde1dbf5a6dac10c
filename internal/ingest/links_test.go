package ingest

import (
	"testing"

	"mufuzz/internal/fuzz"
	"mufuzz/internal/state"
)

// TestLinkedAddresses pins the inter-contract link recovery: PUSH20
// immediates of the runtime code and address-shaped trailing
// constructor-argument words of a creation image surface through
// LinkedAddresses, which is how world campaigns order members
// dependency-first.
func TestLinkedAddresses(t *testing.T) {
	linkA := fuzz.WorldMemberAddr(0)

	// Runtime: PUSH20 linkA; POP; STOP.
	runtime := append([]byte{0x73}, linkA[:]...)
	runtime = append(runtime, 0x50, 0x00)

	tgt, err := Load(runtime, []byte(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := any(tgt).(fuzz.LinkedTarget); !ok {
		t.Fatal("ingest.Target does not satisfy fuzz.LinkedTarget")
	}
	links := tgt.LinkedAddresses()
	if len(links) != 1 || links[0] != linkA {
		t.Fatalf("runtime PUSH20 link not recovered: %v", links)
	}

	// Creation image: the standard CODECOPY/RETURN deploy stub around the
	// same runtime, with one ABI-encoded address constructor argument
	// appended after the code.
	argAddr := state.AddressFromUint(0xbeef)
	stub := []byte{
		0x60, byte(len(runtime)), // PUSH1 len
		0x60, 12, // PUSH1 srcOffset (stub is 12 bytes)
		0x60, 0, // PUSH1 destOffset
		0x39,                     // CODECOPY
		0x60, byte(len(runtime)), // PUSH1 len
		0x60, 0, // PUSH1 offset
		0xf3, // RETURN
	}
	creation := append(append([]byte{}, stub...), runtime...)
	var word [32]byte
	copy(word[12:], argAddr[:])
	creation = append(creation, word[:]...)

	tgt2, err := Load(creation, []byte(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	got := map[state.Address]bool{}
	for _, a := range tgt2.LinkedAddresses() {
		got[a] = true
	}
	if !got[linkA] || !got[argAddr] {
		t.Fatalf("creation links incomplete (want PUSH20 %x and ctor arg %x): %v",
			linkA, argAddr, tgt2.LinkedAddresses())
	}
}

// TestLinkedAddressesOrdersWorld wires two members where the first one's
// bytecode references the second's pinned deployment address: the campaign's
// cross-contract dependency ordering must place the linked-to member's
// constructor first in initial sequences.
func TestLinkedAddressesOrdersWorld(t *testing.T) {
	vaultAddr := state.AddressFromUint(0xc9)
	// "router" runtime calls out to vaultAddr: PUSH20 vault; POP; STOP.
	router := append([]byte{0x73}, vaultAddr[:]...)
	router = append(router, 0x50, 0x00)
	routerTgt, err := Load(router, []byte(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	vaultTgt, err := Load([]byte{0x00}, []byte(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	primary, err := Load([]byte{0x00}, []byte(`[]`))
	if err != nil {
		t.Fatal(err)
	}

	c := fuzz.NewTargetCampaign(primary, fuzz.Options{
		Strategy: fuzz.MuFuzz(), Seed: 1, Iterations: 1,
		World: &fuzz.WorldOptions{Members: []fuzz.WorldMember{
			{Name: "router", Target: routerTgt}, // declared first, links vault
			{Name: "vault", Target: vaultTgt, Addr: vaultAddr},
		}},
	})
	c.Run()
	seqs := c.QueueSequences()
	if len(seqs) == 0 {
		t.Fatal("no seed sequences")
	}
	routerCtor, vaultCtor := -1, -1
	for i, tx := range seqs[0] {
		switch tx.Func {
		case "router." + fuzz.CtorName:
			routerCtor = i
		case "vault." + fuzz.CtorName:
			vaultCtor = i
		}
	}
	if routerCtor < 0 || vaultCtor < 0 {
		t.Fatalf("member constructors missing from seed sequence: %v", seqs[0])
	}
	if vaultCtor > routerCtor {
		t.Fatalf("linked-to member deployed after its dependent: vault at %d, router at %d",
			vaultCtor, routerCtor)
	}
}
