package types

import (
	"crypto/sha256"
	"encoding/binary"
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

// A BlockSlab carves block structs blockSlabSize to an allocation,
// transaction indexes from slabs of indexSlabSize entries and transactions'
// bytes from chunks of TxChunkSize; a payload over half a chunk gets an
// array of its own.
const (
	blockSlabSize = 4
	indexSlabSize = 256
	TxChunkSize   = 32 << 10
)

// BlockSlab carves blocks for one proposer's stream of them — a
// connection's decoder, a proposer's pool: the transactions' bytes from
// chunks, the indexes from slabs that only blocks whose bytes went into one
// chunk share, and the structs four to a slab. So a block its holders have
// dropped, and its bytes, stay reachable through one they keep only while
// they share its chunk, or for at most blockSlabSize-1 of the proposer's
// later blocks: a block cache drops a block once its clan holds it, and the
// slabs must not hold it much longer. The zero BlockSlab is ready to use; a
// nil one allocates each block, index and payload on its own.
type BlockSlab struct {
	blocks Slab[Block]
	index  Slab[[]byte]
	bytes  Slab[byte]
}

// Bytes returns an empty slice with room for exactly n bytes of
// transactions: from the current chunk, or an array of its own when n is
// over half a chunk. A new chunk starts a new index slab.
func (s *BlockSlab) Bytes(n int) []byte {
	if s == nil {
		return make([]byte, 0, n)
	}
	if n <= TxChunkSize/2 && s.bytes.Left() < n {
		s.index = Slab[[]byte]{}
	}
	return s.bytes.Take(n, TxChunkSize)
}

// New returns a zero block whose Txs has room for exactly cnt transactions.
// Chunked says whether all of their bytes came from Bytes' chunks: only then
// is the index carved, since a shared index slab would keep a payload of its
// own reachable for as long as any block beside it.
func (s *BlockSlab) New(cnt int, chunked bool) *Block {
	if s == nil {
		b := &Block{}
		if cnt > 0 {
			b.Txs = make([][]byte, 0, cnt)
		}
		return b
	}
	b := s.blocks.New(blockSlabSize)
	switch {
	case cnt == 0:
	case chunked:
		b.Txs = s.index.Take(cnt, indexSlabSize)
	default:
		b.Txs = make([][]byte, 0, cnt)
	}
	return b
}

// UnmarshalBlock decodes a stored block: buf holds it and nothing else. The
// block owns its memory: its transactions are copied out of buf.
func UnmarshalBlock(buf []byte) (*Block, error) {
	r := Reader{b: buf}
	b := (*BlockSlab)(nil).unmarshal(&r)
	if err := r.End(); err != nil {
		return nil, err
	}
	return b, nil
}

// unmarshal decodes a block into s, copying its transactions into s's
// chunks. A nil s decodes onto the heap. A block that does not decode
// carves nothing.
func (s *BlockSlab) unmarshal(r *Reader) *Block {
	h := Block{Round: Round(r.Uvarint()), Source: r.Node(),
		SynthCount: uint32(r.below(1 << 32)), SynthSize: uint32(r.below(1 << 32)),
		SynthSeed: r.Uvarint(), CreatedAt: int64(r.fixed64())}
	cnt := r.Count(1)
	// Every length is checked, and the total summed, on a copy of the
	// cursor before anything is carved; then the transactions are copied in
	// one pass.
	look, total := *r, 0
	for range cnt {
		total += len(look.Bytes(look.Count(1)))
	}
	if look.err != nil {
		*r = look
		return nil
	}
	// A payload over half a chunk is one array of its own; a smaller one is
	// carved a transaction at a time, so it fills a chunk's tail.
	var backing []byte
	chunked := total <= TxChunkSize/2
	if !chunked {
		backing = s.Bytes(total)
	}
	b := s.New(cnt, chunked)
	h.Txs = b.Txs
	*b = h
	for range cnt {
		tx := r.Bytes(r.Count(1))
		if chunked {
			backing = s.Bytes(len(tx))
		}
		start := len(backing)
		backing = append(backing, tx...)
		b.Txs = append(b.Txs, backing[start:len(backing):len(backing)])
	}
	return b
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
