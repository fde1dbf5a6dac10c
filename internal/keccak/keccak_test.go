package keccak

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
)

// mod251 returns n bytes of byte(i % 251): a period that never lines up with
// the 8-byte lanes or the 136-byte rate.
func mod251(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return string(b)
}

// Known-answer vectors for legacy Keccak-256 (Ethereum flavour).
var kat = []struct {
	in   string
	want string
}{
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	{"testing", "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02"},
	// Multi-block inputs around one, two and three 136-byte blocks, and a
	// transcript-sized input. These digests were computed independently of
	// this package, with OpenSSL 3.5.6 `openssl dgst -keccak-256`, and are
	// committed rather than recomputed because OpenSSL 3.0 has no KECCAK-256.
	{strings.Repeat("a", 136), "a6c4d403279fe3e0af03729caada8374b5ca54d8065329a3ebcaeb4b60aa386e"},
	{strings.Repeat("a", 135), "34367dc248bbd832f4e3e69dfaac2f92638bd0bbd18f2912ba4ef454919cf446"},
	{strings.Repeat("a", 137), "d869f639c7046b4929fc92a4d988a8b22c55fbadb802c0c66ebcd484f1915f39"},
	{strings.Repeat("a", 271), "132f47effd6c8b1b299efa53fe68aece77ec8ae4eb2e294f668eec94f76001e1"},
	{strings.Repeat("a", 272), "cf7fcd4f705ee749930d19ca84561a9bf62516bd90a471545fa2f49fdc7e63c8"},
	{strings.Repeat("a", 273), "5a7b8187d2778e614097fac3097573de1fee4d972304d3360796a857029bb176"},
	{mod251(512 << 10), "68cbcaa45e6b97c948acddda378e3b83d7d242983e907955e6e5880d1976da81"},
}

func TestSum256Vectors(t *testing.T) {
	for _, tc := range kat {
		got := Sum256([]byte(tc.in))
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("Sum256(%d bytes %.8q...) = %x, want %s", len(tc.in), tc.in, got, tc.want)
		}
	}
}

func TestSelector(t *testing.T) {
	// transfer(address,uint256) is the canonical ERC-20 selector 0xa9059cbb.
	sel := Selector("transfer(address,uint256)")
	if got := hex.EncodeToString(sel[:]); got != "a9059cbb" {
		t.Errorf("Selector = %s, want a9059cbb", got)
	}
	sel = Selector("balanceOf(address)")
	if got := hex.EncodeToString(sel[:]); got != "70a08231" {
		t.Errorf("Selector = %s, want 70a08231", got)
	}
}

func TestDistinctInputsDistinctDigests(t *testing.T) {
	seen := make(map[[32]byte][]byte)
	for i := 0; i < 1000; i++ {
		in := bytes.Repeat([]byte{byte(i)}, i%64+1)
		in = append(in, byte(i>>8))
		d := Sum256(in)
		if prev, ok := seen[d]; ok && !bytes.Equal(prev, in) {
			t.Fatalf("collision between %x and %x", prev, in)
		}
		seen[d] = in
	}
}

// The reference sponge below is the textbook loop form of Keccak-f[1600],
// driven through a rate-sized staging buffer as an incremental hasher would
// be. It shares no code with keccakF1600 or Sum256 beyond the round
// constants and the rate, so the tests can compare the two lane by lane and
// digest by digest.

// rotation offsets, indexed [x][y] flattened as x + 5*y.
var rotc = [25]uint{
	0, 1, 62, 28, 27,
	36, 44, 6, 55, 20,
	3, 10, 43, 25, 39,
	41, 45, 15, 21, 8,
	18, 2, 61, 56, 14,
}

// pi lane permutation: destination index for each source lane.
var piln = [25]int{
	0, 10, 20, 5, 15,
	16, 1, 11, 21, 6,
	7, 17, 2, 12, 22,
	23, 8, 18, 3, 13,
	14, 24, 9, 19, 4,
}

func rotl(v uint64, n uint) uint64 { return v<<n | v>>(64-n) }

// keccakF1600Ref applies the 24-round Keccak permutation in place.
func keccakF1600Ref(a *[25]uint64) {
	var c [5]uint64
	var d [5]uint64
	for round := 0; round < 24; round++ {
		// theta
		for x := 0; x < 5; x++ {
			c[x] = a[x] ^ a[x+5] ^ a[x+10] ^ a[x+15] ^ a[x+20]
		}
		for x := 0; x < 5; x++ {
			d[x] = c[(x+4)%5] ^ rotl(c[(x+1)%5], 1)
		}
		for x := 0; x < 5; x++ {
			for y := 0; y < 25; y += 5 {
				a[x+y] ^= d[x]
			}
		}
		// rho and pi combined
		var b [25]uint64
		for i := 0; i < 25; i++ {
			b[piln[i]] = rotl(a[i], rotc[i])
		}
		// chi
		for y := 0; y < 25; y += 5 {
			for x := 0; x < 5; x++ {
				a[x+y] = b[x+y] ^ (^b[(x+1)%5+y] & b[(x+2)%5+y])
			}
		}
		// iota
		a[0] ^= roundConstants[round]
	}
}

// sum256Ref computes the Keccak-256 digest of data with keccakF1600Ref.
func sum256Ref(data []byte) [32]byte {
	var state [25]uint64
	var buf [rate]byte
	n := 0 // bytes buffered in buf
	absorbRef := func() {
		for i := 0; i < rate/8; i++ {
			state[i] ^= binary.LittleEndian.Uint64(buf[i*8:])
		}
		keccakF1600Ref(&state)
		n = 0
	}
	for len(data) > 0 {
		k := copy(buf[n:], data)
		n += k
		data = data[k:]
		if n == rate {
			absorbRef()
		}
	}
	// Legacy Keccak padding: 0x01 ... 0x80 (multi-rate padding with domain 0x01).
	buf[n] = 0x01
	for i := n + 1; i < rate; i++ {
		buf[i] = 0
	}
	buf[rate-1] |= 0x80
	absorbRef()

	var out [32]byte
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], state[i])
	}
	return out
}

func TestPermutationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial <= 10000; trial++ {
		var got, want [25]uint64
		if trial > 0 { // trial 0 is the zero state
			for i := range got {
				got[i] = rng.Uint64()
			}
		}
		want = got
		// Iterating feeds each output back in as the next input.
		for iter := 0; iter < 3; iter++ {
			keccakF1600(&got)
			keccakF1600Ref(&want)
			if got != want {
				t.Fatalf("trial %d, iteration %d: permutation differs from the reference\ngot  %x\nwant %x", trial, iter, got, want)
			}
		}
	}
}

func TestSum256MatchesReferenceEveryLength(t *testing.T) {
	data := []byte(mod251(3*rate + 1))
	for n := 0; n <= len(data); n++ {
		if got, want := Sum256(data[:n]), sum256Ref(data[:n]); got != want {
			t.Errorf("Sum256(%d bytes) = %x, reference %x", n, got, want)
		}
	}
}

func FuzzSum256MatchesReference(f *testing.F) {
	for _, n := range []int{0, 1, rate - 1, rate, rate + 1, 2*rate - 1, 2 * rate, 2*rate + 1} {
		f.Add([]byte(mod251(n)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := Sum256(data), sum256Ref(data); got != want {
			t.Fatalf("Sum256(%d bytes) = %x, reference %x", len(data), got, want)
		}
	})
}

func BenchmarkKeccakF1600(b *testing.B) {
	var a [25]uint64
	for b.Loop() {
		keccakF1600(&a)
	}
}

func BenchmarkSum256_32B(b *testing.B) {
	data := make([]byte, 32)
	b.SetBytes(32)
	for b.Loop() {
		Sum256(data)
	}
}

func BenchmarkSum256_1KB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for b.Loop() {
		Sum256(data)
	}
}

func BenchmarkSum256_512KB(b *testing.B) {
	data := []byte(mod251(512 << 10))
	b.SetBytes(512 << 10)
	for b.Loop() {
		Sum256(data)
	}
}
