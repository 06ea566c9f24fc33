package types

import (
	"fmt"
	"testing"
)

// goldenBlock is a fixed 200-transaction real block; transaction i is
// (i*7)%97 bytes long (so some are empty) and every byte is a function of
// its position.
func goldenBlock() *Block {
	b := &Block{Round: 7, Source: 2, CreatedAt: 12345}
	for i := 0; i < 200; i++ {
		tx := make([]byte, (i*7)%97)
		for j := range tx {
			tx[j] = byte(i*31 + j)
		}
		b.Txs = append(b.Txs, tx)
	}
	return b
}

// Digests of goldenBlock, of a block with no transactions and of a synthetic
// descriptor, taken from the commit before Block.Digest streamed (PR 15).
const (
	goldenBlockDigest = "b5bdfa0568003e58f997960003a17eb99658c769ec538247ab66050d5e806cb8"
	goldenEmptyDigest = "7911f8f5921c37681c27636e5d0866e2f7e7debc87507b89de918c2008c94fb8"
	goldenSynthDigest = "14fab9d793a42ab090d2e6d37b41ce93623dda2e420e0c8e03779b22d8b174be"
)

func TestGoldenBlockDigest(t *testing.T) {
	for _, c := range []struct {
		name string
		blk  *Block
		want string
	}{
		{"real", goldenBlock(), goldenBlockDigest},
		{"empty", &Block{Round: 3, Source: 1}, goldenEmptyDigest},
		{"synthetic", &Block{Round: 3, Source: 1, SynthCount: 5, SynthSize: 512, SynthSeed: 9}, goldenSynthDigest},
	} {
		d := c.blk.Digest()
		if got := fmt.Sprintf("%x", d[:]); got != c.want {
			t.Errorf("%s block digest = %s, want %s", c.name, got, c.want)
		}
	}
}
