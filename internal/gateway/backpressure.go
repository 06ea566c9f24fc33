package gateway

import (
	"sync/atomic"
	"time"

	"clanbft/internal/metrics"
)

// overloadMonitor turns the node's pipeline metrics into a cheap boolean the
// submit hot path can consult with one atomic load. Two signals fold in:
//
//   - exec.queue_wait windowed p95: a sampler goroutine snapshots that one
//     histogram of the host registry every SamplePeriod and diffs consecutive
//     HistSnapshots (HistSnapshot.Since), so the quantile reflects the last
//     window only — a node that was slow an hour ago but healthy now is not
//     overloaded.
//   - mempool depth is deliberately NOT sampled here: the gateway checks the
//     true depth inline on every submission (Config.Depth), because depth can
//     spike and drain between samples and admission must see the spike.
//
// The split matters: queue-wait is a trailing indicator that needs smoothing
// (hence the window), depth is a leading indicator that needs immediacy.
type overloadMonitor struct {
	reg     *metrics.Registry
	prev    metrics.HistSnapshot // the previous sample; the sampler's alone
	high    time.Duration
	period  time.Duration
	loaded  atomic.Bool
	lastP95 atomic.Int64 // ns; exported via gateway.exec_wait_p95 gauge
	stop    chan struct{}
	done    chan struct{}
}

// execWaitHist is the pipeline histogram the monitor watches. The exec stage
// records how long each committed block sat between ordering and execution;
// its p95 climbing means admitted work is queuing inside the node.
const execWaitHist = "exec.queue_wait"

// newOverloadMonitor watches reg, the registry the node's exec stage records
// into. A registry without the histogram (a gateway with no node behind it)
// reads as idle.
func newOverloadMonitor(reg *metrics.Registry, l Limits) *overloadMonitor {
	m := &overloadMonitor{
		reg:    reg,
		high:   l.QueueWaitHigh,
		period: l.SamplePeriod,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if l.QueueWaitHigh < 0 {
		close(m.done) // signal disabled; Overloaded stays false
		return m
	}
	go m.run()
	return m
}

func (m *overloadMonitor) run() {
	defer close(m.done)
	t := time.NewTicker(m.period)
	defer t.Stop()
	m.prev = m.reg.HistSnapshot(execWaitHist)
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.sample()
		}
	}
}

// sample closes one window: the histogram's growth since the last sample.
func (m *overloadMonitor) sample() {
	cur := m.reg.HistSnapshot(execWaitHist)
	win := cur.Since(m.prev)
	m.prev = cur
	if win.Count == 0 {
		// No executions this window. An idle node is not overloaded; a
		// node that stopped executing while submissions continue is
		// caught by the inline depth check instead.
		m.loaded.Store(false)
		m.lastP95.Store(0)
		return
	}
	p95 := win.Quantile(0.95)
	m.lastP95.Store(int64(p95))
	m.loaded.Store(p95 > m.high)
}

// Overloaded is the hot-path read: one atomic load.
func (m *overloadMonitor) Overloaded() bool { return m.loaded.Load() }

// P95 returns the last window's exec queue-wait p95 (0 when idle/disabled).
func (m *overloadMonitor) P95() time.Duration { return time.Duration(m.lastP95.Load()) }

func (m *overloadMonitor) Close() {
	select {
	case <-m.done: // never started or already stopped
		return
	default:
	}
	close(m.stop)
	<-m.done
}
