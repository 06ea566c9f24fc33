package types

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
)

// Block carries the transaction payload referenced by a vertex (Figure 4).
// Two payload modes exist:
//
//   - Real mode: Txs holds the actual transaction bytes. Used by the real
//     TCP deployment, the execution layer, and small-scale tests.
//   - Synthetic mode: SynthCount transactions of SynthSize bytes each are
//     described but not materialized. The block's wire size and digest are
//     fully determined, so the discrete-event simulator can model multi-MB
//     proposals at n=150 without allocating gigabytes. A block is synthetic
//     iff SynthCount > 0; synthetic blocks must have empty Txs.
//
// CreatedAt stamps the creation time (nanoseconds on the experiment clock)
// of the block's transactions; commit latency is measured against it exactly
// as the paper's Section 7 defines (creation -> commit at non-faulty nodes).
type Block struct {
	Round      Round
	Source     NodeID
	Txs        [][]byte
	SynthCount uint32
	SynthSize  uint32
	SynthSeed  uint64
	CreatedAt  int64

	// dig caches the digest once hasDig is set. Valid only while the block
	// is immutable, which protocol blocks are from creation.
	dig    Hash
	hasDig bool
}

// IsSynthetic reports whether the payload is described rather than stored.
func (b *Block) IsSynthetic() bool { return b.SynthCount > 0 }

// DigestCached returns the digest, computing it at most once. Callers must
// not mutate the block afterwards.
func (b *Block) DigestCached() Hash {
	if !b.hasDig {
		b.dig, b.hasDig = b.Digest(), true
	}
	return b.dig
}

// TxCount returns the number of transactions the block carries or describes.
func (b *Block) TxCount() int {
	if b.IsSynthetic() {
		return int(b.SynthCount)
	}
	return len(b.Txs)
}

// PayloadBytes returns the total transaction bytes carried or described.
func (b *Block) PayloadBytes() int {
	if b.IsSynthetic() {
		return int(b.SynthCount) * int(b.SynthSize)
	}
	n := 0
	for _, tx := range b.Txs {
		n += len(tx)
	}
	return n
}

// Digest hashes the block. For real blocks it covers every transaction byte;
// for synthetic blocks it covers the deterministic descriptor, which pins
// the payload just as strongly for simulation purposes.
func (b *Block) Digest() Hash {
	d := digesters.Get().(*digester)
	defer digesters.Put(d)
	hdr := d.hdr[:]
	binary.LittleEndian.PutUint64(hdr[0:], uint64(b.Round))
	binary.LittleEndian.PutUint16(hdr[8:], uint16(b.Source))
	binary.LittleEndian.PutUint32(hdr[10:], b.SynthCount)
	binary.LittleEndian.PutUint32(hdr[14:], b.SynthSize)
	binary.LittleEndian.PutUint64(hdr[18:], b.SynthSeed)
	binary.LittleEndian.PutUint64(hdr[26:], uint64(b.CreatedAt))
	hdr[34] = 0
	if b.IsSynthetic() {
		hdr[34] = 1
		return HashBytes(hdr)
	}
	// Stream header, count and length-prefixed transactions through the
	// hasher: the bytes a marshalled copy would hold, never copied.
	d.h.Reset()
	d.h.Write(hdr)
	d.h.Write(binary.AppendUvarint(d.prefix[:0], uint64(len(b.Txs))))
	for _, tx := range b.Txs {
		d.h.Write(binary.AppendUvarint(d.prefix[:0], uint64(len(tx))))
		d.h.Write(tx)
	}
	d.h.Sum(d.out[:0])
	return d.out
}

// digester is a reusable hasher plus the scratch Digest feeds it from (local
// arrays would escape through the hash.Hash interface).
type digester struct {
	h      hash.Hash
	hdr    [8 + 2 + 4 + 4 + 8 + 8 + 1]byte
	prefix [binary.MaxVarintLen64]byte
	out    Hash
}

var digesters = sync.Pool{New: func() any { return &digester{h: sha256.New()} }}

// Marshal appends the encoding of b to buf. Synthetic blocks encode only the
// descriptor (the simulator never puts them on a real wire; WireSize still
// reports the described size).
func (b *Block) Marshal(buf []byte) []byte {
	buf = PutUvarint(buf, uint64(b.Round))
	buf = PutUvarint(buf, uint64(b.Source))
	buf = PutUvarint(buf, uint64(b.SynthCount))
	buf = PutUvarint(buf, uint64(b.SynthSize))
	buf = PutUvarint(buf, b.SynthSeed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(b.CreatedAt))
	buf = PutUvarint(buf, uint64(len(b.Txs)))
	for _, tx := range b.Txs {
		buf = PutUvarint(buf, uint64(len(tx)))
		buf = append(buf, tx...)
	}
	return buf
}

// UnmarshalBlock decodes a block and returns the remaining bytes. The block
// owns its memory: its transactions are copied out of buf into one backing
// array.
func UnmarshalBlock(buf []byte) (*Block, []byte, error) {
	b := &Block{}
	var u uint64
	var err error
	if u, buf, err = Uvarint(buf); err != nil {
		return nil, nil, err
	}
	b.Round = Round(u)
	if u, buf, err = Uvarint(buf); err != nil {
		return nil, nil, err
	}
	b.Source = NodeID(u)
	if u, buf, err = Uvarint(buf); err != nil {
		return nil, nil, err
	}
	b.SynthCount = uint32(u)
	if u, buf, err = Uvarint(buf); err != nil {
		return nil, nil, err
	}
	b.SynthSize = uint32(u)
	if b.SynthSeed, buf, err = Uvarint(buf); err != nil {
		return nil, nil, err
	}
	if len(buf) < 8 {
		return nil, nil, fmt.Errorf("types: short block createdAt")
	}
	b.CreatedAt = int64(binary.LittleEndian.Uint64(buf))
	buf = buf[8:]
	var cnt uint64
	if cnt, buf, err = Uvarint(buf); err != nil {
		return nil, nil, err
	}
	if cnt > uint64(len(buf)+1) {
		return nil, nil, fmt.Errorf("types: tx count %d exceeds buffer", cnt)
	}
	if cnt > 0 {
		b.Txs = make([][]byte, 0, cnt)
	}
	// The transactions alias buf until every length is checked, then move
	// into one backing array together.
	total := 0
	for i := uint64(0); i < cnt; i++ {
		var n uint64
		if n, buf, err = Uvarint(buf); err != nil {
			return nil, nil, err
		}
		if n > uint64(len(buf)) {
			return nil, nil, fmt.Errorf("types: tx length %d exceeds buffer", n)
		}
		b.Txs = append(b.Txs, buf[:n:n])
		total += int(n)
		buf = buf[n:]
	}
	backing := make([]byte, total)
	off := 0
	for i, tx := range b.Txs {
		n := copy(backing[off:], tx)
		b.Txs[i] = backing[off : off+n : off+n]
		off += n
	}
	return b, buf, nil
}

// WireSize reports the bytes the block occupies on the wire. For synthetic
// blocks this is the described payload plus header, which is what the
// bandwidth model must account for.
func (b *Block) WireSize() int {
	n := uvarintLen(uint64(b.Round)) + uvarintLen(uint64(b.Source)) +
		uvarintLen(uint64(b.SynthCount)) + uvarintLen(uint64(b.SynthSize)) +
		uvarintLen(b.SynthSeed) + 8
	if b.IsSynthetic() {
		return n + b.PayloadBytes() + 4*int(b.SynthCount) // per-tx framing estimate
	}
	n += uvarintLen(uint64(len(b.Txs)))
	for _, tx := range b.Txs {
		n += uvarintLen(uint64(len(tx))) + len(tx)
	}
	return n
}
