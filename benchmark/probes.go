package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"clanbft/internal/core"
	"clanbft/internal/crypto"
	"clanbft/internal/execution"
	"clanbft/internal/perfbench"
	"clanbft/internal/store"
	"clanbft/internal/types"
)

// probeBenchtime is how long testing.Benchmark measures each probe. Eleven
// probes and their ramp-up have to fit in 3 s.
const probeBenchtime = "80ms"

var probeSink any

func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func mbPerSec(r testing.BenchmarkResult) float64 {
	if r.T <= 0 {
		return 0
	}
	return float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e6
}

// layerProbes calls public functions of single layers directly, once the
// cluster is gone: what each costs on this box today, next to what the run
// spent in it. They reuse the repo's own perfbench bodies where one exists.
func layerProbes(m map[string]float64, outDir string) error {
	testing.Init()
	if err := flag.Set("test.benchtime", probeBenchtime); err != nil {
		return err
	}
	// perfbench.DiskGroupCommit makes its directory under TMPDIR; keep it,
	// like the store probe's, inside the run's scratch directory.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	if abs, err := filepath.Abs(scratch); err == nil {
		os.Setenv("TMPDIR", abs)
	}
	failed := ""
	bench := func(name string, fn func(b *testing.B)) testing.BenchmarkResult {
		r := testing.Benchmark(fn)
		if r.N == 0 && failed == "" {
			failed = name
		}
		return r
	}

	m["gateway.stub_rtt_p50_ms"] = bench("gateway stub", perfbench.ClientE2ELatency).Extra["p50_ms"]

	keys := crypto.GenerateKeys(4, 1)
	reg := crypto.NewRegistry(keys, true)
	msg := make([]byte, 128)
	sig := crypto.Sign(&keys[1], msg)
	m["crypto.sign_us"] = nsPerOp(bench("sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			probeSink = crypto.Sign(&keys[1], msg)
		}
	})) / 1e3
	m["crypto.verify_ops_per_s"] = 1e9 / nsPerOp(bench("verify pool", func(b *testing.B) {
		pool := crypto.NewVerifyPool(0, 0)
		defer pool.Close()
		var wg sync.WaitGroup
		wg.Add(b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Submit(func() {
				if !reg.Verify(1, msg, sig) {
					b.Error("signature rejected")
				}
				wg.Done()
			})
		}
		wg.Wait()
	}))
	block := make([]byte, 64<<10)
	m["crypto.hash_mb_s"] = mbPerSec(bench("hash", func(b *testing.B) {
		b.SetBytes(int64(len(block)))
		for i := 0; i < b.N; i++ {
			probeSink = types.HashBytes(block)
		}
	}))

	m["transport.multicast_mb_s"] = mbPerSec(bench("multicast", func(b *testing.B) { perfbench.MulticastEncodeOnce(b, 2, 256<<10) }))
	m["transport.small_msg_ns"] = nsPerOp(bench("small msg", func(b *testing.B) { perfbench.SmallMsgCoalesce(b, true) }))
	// One op of RxDecodeZeroCopy decodes a chunk of 64 framed votes.
	m["types.rx_decode_ns"] = nsPerOp(bench("rx decode", func(b *testing.B) { perfbench.RxDecodeZeroCopy(b, true) })) / 64

	v := &types.Vertex{Round: 912, Source: 3, CreatedAt: 1}
	for s := 0; s < 3; s++ {
		v.StrongEdges = append(v.StrongEdges, types.VertexRef{Round: 911, Source: types.NodeID(s)})
	}
	m["types.vertex_encode_ns"] = nsPerOp(bench("vertex encode", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = v.Marshal(buf[:0])
		}
		probeSink = buf
	}))

	m["store.append_us"] = nsPerOp(bench("store append", func(b *testing.B) {
		dir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			b.Fatal(err)
		}
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		var batch store.Batch
		key, val := make([]byte, 16), make([]byte, 128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch.Reset()
			for k := 0; k < 16; k++ {
				key[0], key[1], key[2], key[3] = byte(i), byte(i>>8), byte(i>>16), byte(k)
				batch.Put(key, val)
			}
			if err := s.Apply(&batch); err != nil {
				b.Fatal(err)
			}
		}
	})) / 1e3
	m["store.group_commit_us"] = nsPerOp(bench("group commit", func(b *testing.B) { perfbench.DiskGroupCommit(b, 8) })) / 1e3

	// A block of 1000 writes of 128 B, applied serially: the ceiling one
	// executor puts on client.sat_tps.
	in := &inputs{w: workload{value: 128}, filler: make([]byte, fillerBytes)}
	blk := &types.Block{}
	for i := 0; i < 1000; i++ {
		blk.Txs = append(blk.Txs, in.appendWrite(nil, 'w', uint32(i*37%writeKeys), 0, uint32(i)))
	}
	cv := core.CommittedVertex{Vertex: v, Block: blk}
	m["execution.serial_tps"] = 1e9 * float64(len(blk.Txs)) / nsPerOp(bench("serial apply", func(b *testing.B) {
		ex := execution.NewExecutor(0, nil)
		for i := 0; i < b.N; i++ {
			ex.Apply(cv)
		}
	}))
	if failed != "" {
		return fmt.Errorf("layer probe %q failed", failed)
	}
	return nil
}
