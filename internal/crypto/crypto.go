// Package crypto provides the signing substrate for clanbft: Ed25519
// signatures for individual protocol messages and a *simulated* BLS-style
// aggregatable multi-signature for certificates (echo certificates, timeout
// certificates, no-vote certificates).
//
// # The multi-signature substitution
//
// The paper uses BLS multi-signatures [Boneh, Drijvers, Neven 2018]. The Go
// standard library has no pairing-based cryptography, and this repository is
// stdlib-only, so the aggregate scheme here is simulated: every party holds
// a 32-byte tag key, a partial signature is HMAC-SHA256(tagKey, msg), and
// the aggregate is the XOR-fold of the partials plus a signer bitmap —
// exactly the shape (constant-size tag + n-bit vector) and exactly the
// protocol-visible semantics (aggregate anyone's partials in any order,
// verify against an explicit signer set) of a BLS multi-signature.
//
// SECURITY: the simulated scheme is NOT secure against a real adversary —
// verification requires the registry to know every party's tag key, so any
// verifier could also forge. What the consensus protocol consumes is (a)
// certificate size, (b) aggregation semantics, and (c) verification cost,
// all of which are preserved; the CPU cost of real BLS operations is modeled
// separately by the Costs table so that simulated experiments account for it.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"clanbft/internal/types"
)

// KeyPair holds one party's Ed25519 keys and its multi-signature tag key.
type KeyPair struct {
	ID     types.NodeID
	Priv   ed25519.PrivateKey
	Pub    ed25519.PublicKey
	TagKey [32]byte
}

// detReader is a deterministic stream (SHA-256 in counter mode) so that test
// and simulation key material is reproducible from a seed.
type detReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func (d *detReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(d.buf) == 0 {
			var in [40]byte
			copy(in[:32], d.seed[:])
			binary.LittleEndian.PutUint64(in[32:], d.ctr)
			d.ctr++
			sum := sha256.Sum256(in[:])
			d.buf = sum[:]
		}
		c := copy(p[n:], d.buf)
		d.buf = d.buf[c:]
		n += c
	}
	return n, nil
}

// GenerateKeys deterministically derives n key pairs from seed.
func GenerateKeys(n int, seed uint64) []KeyPair {
	var s [32]byte
	binary.LittleEndian.PutUint64(s[:], seed)
	rd := &detReader{seed: sha256.Sum256(s[:])}
	keys := make([]KeyPair, n)
	for i := range keys {
		pub, priv, err := ed25519.GenerateKey(rd)
		if err != nil {
			panic(fmt.Sprintf("crypto: deterministic keygen failed: %v", err))
		}
		keys[i] = KeyPair{ID: types.NodeID(i), Priv: priv, Pub: pub}
		if _, err := rd.Read(keys[i].TagKey[:]); err != nil {
			panic(err)
		}
	}
	return keys
}

// Registry holds the public material of every party plus (simulation only)
// the tag keys needed to verify aggregates. CheckSigs=false turns every
// verification into a size-preserving no-op; large-scale simulations use it
// together with the modeled Costs so that CPU time is accounted without
// burning host cycles on real EdDSA at n=150.
type Registry struct {
	Pubs      []ed25519.PublicKey
	TagKeys   [][32]byte
	CheckSigs bool
}

// NewRegistry builds a registry from generated key pairs.
func NewRegistry(keys []KeyPair, checkSigs bool) *Registry {
	r := &Registry{CheckSigs: checkSigs}
	for _, k := range keys {
		r.Pubs = append(r.Pubs, k.Pub)
		r.TagKeys = append(r.TagKeys, k.TagKey)
	}
	return r
}

// N returns the number of registered parties.
func (r *Registry) N() int { return len(r.Pubs) }

// Sign signs msg with kp's Ed25519 key.
func Sign(kp *KeyPair, msg []byte) types.SigBytes {
	var out types.SigBytes
	copy(out[:], ed25519.Sign(kp.Priv, msg))
	return out
}

// SignFor signs msg unless the registry has signature checking disabled, in
// which case it returns a zero signature (wire size is unchanged; simulated
// experiments model signing cost through Costs instead of spending host
// cycles).
func (r *Registry) SignFor(kp *KeyPair, msg []byte) types.SigBytes {
	if !r.CheckSigs || kp == nil {
		return types.SigBytes{}
	}
	return Sign(kp, msg)
}

// Verify checks an individual signature by party id over msg.
func (r *Registry) Verify(id types.NodeID, msg []byte, sig types.SigBytes) bool {
	if !r.CheckSigs {
		return true
	}
	if int(id) >= len(r.Pubs) {
		return false
	}
	return ed25519.Verify(r.Pubs[id], msg, sig[:])
}

// PartialTag computes party kp's partial multi-signature over msg.
func PartialTag(kp *KeyPair, msg []byte) [32]byte {
	return partial(kp.TagKey, msg)
}

// partial is HMAC-SHA256(key, msg). Every signing context is a few dozen
// bytes, so the short case spells the construction out over sha256.Sum256 in
// stack buffers: crypto/hmac builds two hash.Hash values per call and makes
// msg escape through them, eight allocations for every vote folded.
func partial(key [32]byte, msg []byte) [32]byte {
	const block = sha256.BlockSize
	var inner [2 * block]byte
	if len(msg) > len(inner)-block {
		// Copies, so that only this path pays for what escapes into hmac.
		k := key
		mac := hmac.New(sha256.New, k[:])
		mac.Write(append([]byte(nil), msg...))
		var out [32]byte
		mac.Sum(out[:0])
		return out
	}
	var outer [block + sha256.Size]byte
	for i := 0; i < block; i++ {
		inner[i], outer[i] = 0x36, 0x5c
	}
	for i, k := range key {
		inner[i] ^= k
		outer[i] ^= k
	}
	sum := sha256.Sum256(inner[:block+copy(inner[block:], msg)])
	copy(outer[block:], sum[:])
	return sha256.Sum256(outer[:])
}

// Aggregator incrementally folds partial tags into an AggSig, mirroring how
// a BLS aggregator multiplies signatures together without verifying each one
// up front (the paper's "aggregate then verify once" optimization).
type Aggregator struct {
	agg types.AggSig
	n   int
}

// NewAggregator prepares an aggregator for an n-party system.
func NewAggregator(n int) *Aggregator {
	a := &Aggregator{}
	a.Init(n, types.NewBitmap(n))
	return a
}

// Init prepares an aggregator in place over caller-provided, zeroed bitmap
// storage of (n+7)/8 bytes, for callers that embed aggregators in a slab.
func (a *Aggregator) Init(n int, bitmap []byte) {
	*a = Aggregator{agg: types.AggSig{Bitmap: bitmap}, n: n}
}

// Add folds party id's partial tag in. Adding the same party twice is a
// caller bug and is rejected.
func (a *Aggregator) Add(id types.NodeID, tag [32]byte) error {
	if types.BitmapHas(a.agg.Bitmap, id) {
		return fmt.Errorf("crypto: duplicate partial from %d", id)
	}
	types.BitmapSet(a.agg.Bitmap, id)
	for i := range a.agg.Tag {
		a.agg.Tag[i] ^= tag[i]
	}
	return nil
}

// Count returns the number of folded partials.
func (a *Aggregator) Count() int { return types.BitmapCount(a.agg.Bitmap) }

// Bitmap exposes the signer bitmap without copying. Callers must not
// mutate it.
func (a *Aggregator) Bitmap() []byte { return a.agg.Bitmap }

// Sig returns the aggregate, sharing the aggregator's bitmap: take it when
// folding is over, and Clone it before it outlives the bitmap's storage.
func (a *Aggregator) Sig() types.AggSig { return a.agg }

// VerifyAgg checks an aggregate signature over msg against its bitmap. It is
// the analogue of a single pairing check over the aggregated BLS signature.
func (r *Registry) VerifyAgg(msg []byte, agg types.AggSig) bool {
	if !r.CheckSigs {
		return true
	}
	var want [32]byte
	ok := types.BitmapForEach(agg.Bitmap, func(id types.NodeID) bool {
		if int(id) >= len(r.TagKeys) {
			return false
		}
		p := partial(r.TagKeys[id], msg)
		for i := range want {
			want[i] ^= p[i]
		}
		return true
	})
	return ok && want == agg.Tag
}

// SigTag is a convenience for converting an individual vote (Ed25519 signed)
// into the partial used for aggregation. Votes in clanbft are signed with
// Ed25519 on the wire and folded into aggregates via the voter's tag partial
// computed over the same message.
func SigTag(kp *KeyPair, msg []byte) (types.SigBytes, [32]byte) {
	return Sign(kp, msg), PartialTag(kp, msg)
}
