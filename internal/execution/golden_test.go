package execution

import (
	"fmt"
	"testing"

	"clanbft/internal/types"
)

// goldenScript is a fixed 200-transaction script in four blocks: same-size
// and resized overwrites of sixteen keys, reads, deletes, long keys, a
// truncated transaction and an unknown op. Every byte is a function of the
// index, so the state root below is a constant of the state machine's
// definition, not of this build.
func goldenScript() []*types.Block {
	var blocks []*types.Block
	for b := 0; b < 4; b++ {
		blk := &types.Block{Round: types.Round(b + 1), Source: 1}
		for j := 0; j < 50; j++ {
			i := b*50 + j
			h := splitmix64(uint64(i))
			key := []byte(fmt.Sprintf("k%02d", h%16))
			val := make([]byte, 8+(h>>8)%40)
			for x := range val {
				val[x] = byte(h>>uint(x%8*8)) + byte(x)
			}
			var raw []byte
			switch i % 10 {
			case 6:
				raw = EncodeTx(Tx{Op: OpGet, Key: key})
			case 7:
				raw = EncodeTx(Tx{Op: OpDel, Key: key})
			case 8:
				raw = EncodeTx(Tx{Op: OpSet, Key: append(val, key...), Value: key})
			case 9:
				if i%20 == 9 {
					raw = []byte{OpSet, 200}
				} else {
					raw = EncodeTx(Tx{Op: 9, Key: key, Value: val})
				}
			default:
				raw = EncodeTx(Tx{Op: OpSet, Key: key, Value: val})
			}
			blk.Txs = append(blk.Txs, raw)
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

// goldenRoot is the state root after goldenScript, taken from the commit
// before the transaction path stopped allocating (PR 15).
const goldenRoot = "74680a3275d3e0c18c9c47944a8932d5769a9918142777fd2b9a3032649d0589"

func TestGoldenStateRoot(t *testing.T) {
	e := NewExecutor(0, nil)
	for _, blk := range goldenScript() {
		e.Apply(cv(blk))
	}
	if root := e.StateRoot(); fmt.Sprintf("%x", root[:]) != goldenRoot {
		t.Fatalf("state root after the golden script = %x, want %s", root[:], goldenRoot)
	}
	if e.Executed != 200 {
		t.Fatalf("executed %d of 200", e.Executed)
	}
}
