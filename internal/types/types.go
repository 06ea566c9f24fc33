// Package types defines the wire-level data model shared by every protocol
// layer in clanbft: identifiers, vertices, blocks, certificates, and the
// protocol messages exchanged between parties, together with a deterministic
// hand-rolled binary codec.
//
// The package is deliberately dependency-free (stdlib only) and sits at the
// bottom of the import graph: crypto, transport, rbc, and consensus all build
// on it.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// NodeID identifies a party in the tribe. Parties are numbered densely from
// 0 to n-1; the numbering is part of the static system configuration that
// every party shares.
type NodeID uint16

// Round is a DAG round number. Round 0 holds the genesis vertices.
type Round uint64

// ClanID identifies a clan in the multi-clan configuration. NoClan marks a
// party that belongs to no clan (possible only in single-clan mode).
type ClanID int16

// NoClan is the ClanID of parties outside every clan.
const NoClan ClanID = -1

// Hash is a 32-byte SHA-256 digest.
type Hash [32]byte

// ZeroHash is the all-zero digest, used as the block digest of vertices that
// carry no payload (e.g. non-clan proposers in single-clan mode).
var ZeroHash Hash

// String renders the first 8 hex digits, enough for logs.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:4]) }

// IsZero reports whether h is the zero digest.
func (h Hash) IsZero() bool { return h == ZeroHash }

// HashBytes hashes an arbitrary byte string.
func HashBytes(b []byte) Hash { return sha256.Sum256(b) }

// SigBytes is an Ed25519 signature (or a simulated stand-in of equal size).
type SigBytes [64]byte

// AggSig is an aggregatable multi-signature: a constant-size aggregate tag
// plus a bitmap of the signers (one bit per party, little-endian bit order).
// It mirrors the shape of a BLS multi-signature [Boneh et al.]: O(κ + n) bits
// regardless of how many parties signed.
type AggSig struct {
	Tag    [32]byte
	Bitmap []byte
}

// NewBitmap allocates a bitmap wide enough for n parties.
func NewBitmap(n int) []byte { return make([]byte, (n+7)/8) }

// BitmapSet sets party id's bit.
func BitmapSet(bm []byte, id NodeID) { bm[id/8] |= 1 << (id % 8) }

// BitmapHas reports whether party id's bit is set.
func BitmapHas(bm []byte, id NodeID) bool {
	i := int(id / 8)
	return i < len(bm) && bm[i]&(1<<(id%8)) != 0
}

// BitmapCount returns the number of set bits.
func BitmapCount(bm []byte) int {
	c := 0
	for _, b := range bm {
		for ; b != 0; b &= b - 1 {
			c++
		}
	}
	return c
}

// BitmapForEach calls fn for every set bit in ascending NodeID order without
// allocating. fn returning false stops the walk; the return value reports
// whether every set bit was visited.
func BitmapForEach(bm []byte, fn func(NodeID) bool) bool {
	for i, b := range bm {
		for ; b != 0; b &= b - 1 {
			if !fn(NodeID(i*8 + bits.TrailingZeros8(b))) {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of the aggregate signature.
func (a AggSig) Clone() AggSig {
	bm := make([]byte, len(a.Bitmap))
	copy(bm, a.Bitmap)
	return AggSig{Tag: a.Tag, Bitmap: bm}
}

// WireSize is the encoded size of the aggregate signature.
func (a AggSig) WireSize() int { return 32 + uvarintLen(uint64(len(a.Bitmap))) + len(a.Bitmap) }

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// PutUvarint appends v to b as a varint.
func PutUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// Uvarint reads a varint from b, returning the value and remaining bytes.
func Uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("types: bad uvarint")
	}
	return v, b[n:], nil
}
