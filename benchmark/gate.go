package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"clanbft/internal/types"
)

// orderLog is what one node's commit hook keeps for the correctness gate.
// It is appended on the node's execution goroutine and read after the node
// is closed.
type orderLog struct {
	// chain[i] is the rolling hash over (round, source, block digest) of
	// the first i+1 ordered vertices: equal hashes at equal length mean
	// equal prefixes.
	chain []types.Hash
	// roots holds the executor's state root after each applied block.
	roots []rootAt
}

type rootAt struct {
	applied int // transactions applied so far
	root    types.Hash
}

func (l *orderLog) ordered(round types.Round, source types.NodeID, block types.Hash) {
	var b [32 + 8 + 8 + 32]byte
	if n := len(l.chain); n > 0 {
		copy(b[:32], l.chain[n-1][:])
	}
	binary.BigEndian.PutUint64(b[32:], uint64(round))
	binary.BigEndian.PutUint64(b[40:], uint64(source))
	copy(b[48:], block[:])
	l.chain = append(l.chain, sha256.Sum256(b[:]))
}

func (l *orderLog) applied(n int, root types.Hash) {
	l.roots = append(l.roots, rootAt{n, root})
}

// checkOrders fails unless every node's order is a prefix of every longer
// one; a crashed node's order is simply a shorter prefix.
func checkOrders(logs []*orderLog) error {
	for i, a := range logs {
		for j := i + 1; j < len(logs); j++ {
			b := logs[j]
			m := min(len(a.chain), len(b.chain))
			if m > 0 && a.chain[m-1] != b.chain[m-1] {
				return fmt.Errorf("order: nodes %d and %d differ within their first %d vertices", i, j, m)
			}
		}
	}
	return nil
}

// checkRoots fails if two executors report different state roots after
// applying the same number of transactions.
func checkRoots(logs []*orderLog) error {
	type seen struct {
		root types.Hash
		node int
	}
	at := map[int]seen{}
	for i, l := range logs {
		for _, r := range l.roots {
			if s, ok := at[r.applied]; !ok {
				at[r.applied] = seen{r.root, i}
			} else if s.root != r.root {
				return fmt.Errorf("state root: nodes %d and %d differ after %d transactions", s.node, i, r.applied)
			}
		}
	}
	return nil
}

// checkOnce fails unless every write that got its COMMIT appears exactly once
// in its gateway node's order. seen[i] counts appearances of write i.
func checkOnce(seen []uint8, committed func(i int) bool) error {
	for i, n := range seen {
		if committed(i) && n != 1 {
			return fmt.Errorf("exactly-once: committed write %d appears %d times in its gateway's order", i, n)
		}
	}
	return nil
}

// gate checks one finished run: it reads what the hooks and the clients
// recorded, so the cluster must be closed. tr is nil outside a traced run.
func gate(c *cluster, in *inputs, tr *tracer) []error {
	var logs []*orderLog
	for _, n := range c.nodes {
		logs = append(logs, &n.log)
	}
	errs := []error{checkOrders(logs), checkRoots(logs)}
	for k, cs := range c.cs {
		if cs.dupes > 0 {
			errs = append(errs, fmt.Errorf("conn %d: %d operations answered twice", k, cs.dupes))
		}
		if i := slices.Index(cs.status, stBadValue); i >= 0 {
			errs = append(errs, fmt.Errorf("conn %d read %d: VALUE is not what the generator wrote, or has fewer than f_c+1 replies", k, i))
		}
		if tr != nil {
			errs = append(errs, checkOnce(tr.conn[k].seen, func(i int) bool {
				if i < len(cs.status) {
					return cs.status[i] == stOK && in.ops[k][i].kind == opWrite
				}
				return cs.burstDone[i-len(cs.status)] > 0
			}))
		}
	}
	return errs
}

// gateSelfTest feeds the gate three broken histories and one sound one. A gate
// that lets a broken history through would pass every run, so every run starts
// by proving it does not.
func gateSelfTest() error {
	h := func(b byte) types.Hash { return types.Hash{b} }
	build := func(digests ...byte) *orderLog {
		l := &orderLog{}
		for i, d := range digests {
			l.ordered(types.Round(i/2), types.NodeID(i%2), h(d))
			l.applied(10*(i+1), h(d))
		}
		return l
	}
	sound := []*orderLog{build(1, 2, 3, 4), build(1, 2, 3, 4), build(1, 2)}
	if err := errors.Join(checkOrders(sound), checkRoots(sound)); err != nil {
		return fmt.Errorf("gate self-test: sound history rejected: %w", err)
	}
	if checkOrders([]*orderLog{build(1, 2, 3, 4), build(1, 3, 2, 4)}) == nil {
		return errors.New("gate self-test: swapped order passed")
	}
	if checkOrders([]*orderLog{build(1, 2, 3, 4), build(1, 2, 3, 4), build(1, 5)}) == nil {
		return errors.New("gate self-test: crashed node with a non-prefix order passed")
	}
	diverged := build(1, 2, 3, 4)
	diverged.roots[2].root = h(9)
	if checkRoots([]*orderLog{build(1, 2, 3, 4), diverged}) == nil {
		return errors.New("gate self-test: diverging state root passed")
	}
	all := func(int) bool { return true }
	if checkOnce([]uint8{1, 1, 1}, all) != nil || checkOnce([]uint8{1, 2, 1}, all) == nil || checkOnce([]uint8{1, 0, 1}, all) == nil {
		return errors.New("gate self-test: exactly-once check is wrong")
	}
	return nil
}
