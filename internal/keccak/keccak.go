// Package keccak implements the legacy Keccak-256 hash function as used by
// Ethereum (original Keccak padding 0x01, not the NIST SHA3 padding 0x06).
//
// The EVM substrate needs Keccak-256 in three places: 4-byte function
// selectors, the KECCAK256 (SHA3) opcode, and the storage-slot derivation of
// Solidity mappings. The store, snapshots and worlds also use it to frame
// objects and pin code hashes. The implementation is self-contained because
// the standard library's crypto/sha3 implements only NIST SHA-3 and SHAKE,
// whose 0x06 and 0x1f domain padding differs from legacy Keccak's.
package keccak

import (
	"encoding/binary"
	"math/bits"
)

// round constants for Keccak-f[1600].
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808a,
	0x8000000080008000, 0x000000000000808b, 0x0000000080000001,
	0x8000000080008081, 0x8000000000008009, 0x000000000000008a,
	0x0000000000000088, 0x0000000080008009, 0x000000008000000a,
	0x000000008000808b, 0x800000000000008b, 0x8000000000008089,
	0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
	0x000000000000800a, 0x800000008000000a, 0x8000000080008081,
	0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// keccakF1600 applies the 24-round Keccak permutation in place. Lane (x, y)
// is a[x+5*y]; the lanes live in local variables for the whole permutation,
// and each round is written out lane by lane with constant rotations so the
// compiler keeps it free of table lookups and bounds checks.
func keccakF1600(a *[25]uint64) {
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	a5, a6, a7, a8, a9 := a[5], a[6], a[7], a[8], a[9]
	a10, a11, a12, a13, a14 := a[10], a[11], a[12], a[13], a[14]
	a15, a16, a17, a18, a19 := a[15], a[16], a[17], a[18], a[19]
	a20, a21, a22, a23, a24 := a[20], a[21], a[22], a[23], a[24]
	for _, rc := range roundConstants {
		// theta: d[x] = c[x-1] ^ rotl(c[x+1], 1), c[x] the parity of column x.
		c0 := a0 ^ a5 ^ a10 ^ a15 ^ a20
		c1 := a1 ^ a6 ^ a11 ^ a16 ^ a21
		c2 := a2 ^ a7 ^ a12 ^ a17 ^ a22
		c3 := a3 ^ a8 ^ a13 ^ a18 ^ a23
		c4 := a4 ^ a9 ^ a14 ^ a19 ^ a24
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)
		// rho and pi: lane (x, y), theta applied and rotated, moves to
		// (y, 2x+3y mod 5).
		b0 := a0 ^ d0
		b1 := bits.RotateLeft64(a6^d1, 44)
		b2 := bits.RotateLeft64(a12^d2, 43)
		b3 := bits.RotateLeft64(a18^d3, 21)
		b4 := bits.RotateLeft64(a24^d4, 14)
		b5 := bits.RotateLeft64(a3^d3, 28)
		b6 := bits.RotateLeft64(a9^d4, 20)
		b7 := bits.RotateLeft64(a10^d0, 3)
		b8 := bits.RotateLeft64(a16^d1, 45)
		b9 := bits.RotateLeft64(a22^d2, 61)
		b10 := bits.RotateLeft64(a1^d1, 1)
		b11 := bits.RotateLeft64(a7^d2, 6)
		b12 := bits.RotateLeft64(a13^d3, 25)
		b13 := bits.RotateLeft64(a19^d4, 8)
		b14 := bits.RotateLeft64(a20^d0, 18)
		b15 := bits.RotateLeft64(a4^d4, 27)
		b16 := bits.RotateLeft64(a5^d0, 36)
		b17 := bits.RotateLeft64(a11^d1, 10)
		b18 := bits.RotateLeft64(a17^d2, 15)
		b19 := bits.RotateLeft64(a23^d3, 56)
		b20 := bits.RotateLeft64(a2^d2, 62)
		b21 := bits.RotateLeft64(a8^d3, 55)
		b22 := bits.RotateLeft64(a14^d4, 39)
		b23 := bits.RotateLeft64(a15^d0, 41)
		b24 := bits.RotateLeft64(a21^d1, 2)
		// chi, row by row, and iota on lane (0, 0).
		a0 = b0 ^ (^b1 & b2) ^ rc
		a1 = b1 ^ (^b2 & b3)
		a2 = b2 ^ (^b3 & b4)
		a3 = b3 ^ (^b4 & b0)
		a4 = b4 ^ (^b0 & b1)
		a5 = b5 ^ (^b6 & b7)
		a6 = b6 ^ (^b7 & b8)
		a7 = b7 ^ (^b8 & b9)
		a8 = b8 ^ (^b9 & b5)
		a9 = b9 ^ (^b5 & b6)
		a10 = b10 ^ (^b11 & b12)
		a11 = b11 ^ (^b12 & b13)
		a12 = b12 ^ (^b13 & b14)
		a13 = b13 ^ (^b14 & b10)
		a14 = b14 ^ (^b10 & b11)
		a15 = b15 ^ (^b16 & b17)
		a16 = b16 ^ (^b17 & b18)
		a17 = b17 ^ (^b18 & b19)
		a18 = b18 ^ (^b19 & b15)
		a19 = b19 ^ (^b15 & b16)
		a20 = b20 ^ (^b21 & b22)
		a21 = b21 ^ (^b22 & b23)
		a22 = b22 ^ (^b23 & b24)
		a23 = b23 ^ (^b24 & b20)
		a24 = b24 ^ (^b20 & b21)
	}
	a[0], a[1], a[2], a[3], a[4] = a0, a1, a2, a3, a4
	a[5], a[6], a[7], a[8], a[9] = a5, a6, a7, a8, a9
	a[10], a[11], a[12], a[13], a[14] = a10, a11, a12, a13, a14
	a[15], a[16], a[17], a[18], a[19] = a15, a16, a17, a18, a19
	a[20], a[21], a[22], a[23], a[24] = a20, a21, a22, a23, a24
}

const rate = 136 // bytes absorbed per permutation for Keccak-256

// absorb XORs one rate-sized block into the state and permutes it.
func absorb(a *[25]uint64, block *[rate]byte) {
	for i := 0; i < rate/8; i++ {
		a[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	keccakF1600(a)
}

// Sum256 computes the Keccak-256 digest of data.
func Sum256(data []byte) [32]byte {
	var a [25]uint64
	for len(data) >= rate {
		absorb(&a, (*[rate]byte)(data))
		data = data[rate:]
	}
	// Legacy Keccak padding: 0x01 ... 0x80 (multi-rate padding with domain 0x01).
	var last [rate]byte
	copy(last[:], data)
	last[len(data)] = 0x01
	last[rate-1] |= 0x80
	absorb(&a, &last)

	var out [32]byte
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], a[i])
	}
	return out
}

// Selector returns the 4-byte Ethereum function selector for a canonical
// signature such as "transfer(address,uint256)".
func Selector(signature string) [4]byte {
	sum := Sum256([]byte(signature))
	var sel [4]byte
	copy(sel[:], sum[:4])
	return sel
}
