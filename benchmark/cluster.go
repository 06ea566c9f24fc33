package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"clanbft"
	"clanbft/internal/execution"
	"clanbft/internal/gateway"
)

// node is one consensus party with the hooks the benchmark owns around it.
type node struct {
	id   int
	nd   *clanbft.TCPNode
	ex   *execution.Executor
	conn int // client connection its gateway serves, or -1
	tr   *tracer
	log  orderLog
	down bool

	// epoch estimates the wall time of the node's clock origin, so that
	// ProposedAt and OrderedAt can sit on the benchmark's clock. It starts
	// at an upper bound (NewTCPNode returned) and tightens to the smallest
	// hook-entered − OrderedAt seen, which is the origin plus the shortest
	// hand-off to the execution goroutine: microseconds.
	epoch int64 // ns since processStart

	applyNs  atomic.Int64 // wall time inside Apply
	applyTxs atomic.Int64
}

// cluster is one booted workload: nodes, the relay behind every directed
// link, and two gateways on two distinct proposers.
type cluster struct {
	nodes  []*node
	relays []*relay
	gws    [conns]*clanbft.Gateway
	gwNode [conns]*node
	cs     [conns]*connState
}

// hook is the node's only OnCommit callback besides the gateway's, and is
// registered first: COMMIT notifications follow execution.
func (n *node) hook(cv clanbft.Commit) {
	entered := sinceStart()
	if e := entered - int64(cv.OrderedAt); e < n.epoch {
		n.epoch = e
	}
	n.log.ordered(cv.Vertex.Round, cv.Vertex.Source, cv.Vertex.BlockDigest)
	n.ex.Apply(cv)
	applied := sinceStart()
	if cv.Block == nil || cv.Block.IsSynthetic() {
		return
	}
	n.applyNs.Add(applied - entered)
	n.applyTxs.Add(int64(len(cv.Block.Txs)))
	n.log.applied(n.ex.Executed, n.ex.StateRoot())
	if n.tr != nil && n.conn >= 0 {
		n.tr.block(n, cv, entered, applied)
	}
}

// boot brings one cluster up the way cmd/loadgen -selfhost does — in-process
// TCP nodes on 127.0.0.1:0, SetPeerAddr bootstrap, ExecQueue 256, every other
// option at its default, store in memory — except that every peer address is
// a relay's. It returns once a probe transaction through the first gateway
// has its COMMIT; the elapsed time is one set-up sample.
func boot(w workload, cs [conns]*connState, tr *tracer) (*cluster, time.Duration, error) {
	start := time.Now()
	c := &cluster{cs: cs}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()

	placeholder := map[clanbft.NodeID]string{}
	for i := 0; i < w.n; i++ {
		placeholder[clanbft.NodeID(i)] = "127.0.0.1:0"
	}
	for i := 0; i < w.n; i++ {
		nd, err := clanbft.NewTCPNode(clanbft.TCPNodeOptions{
			Self:  clanbft.NodeID(i),
			Addrs: placeholder,
			Options: clanbft.Options{
				N:         w.n,
				Mode:      w.mode,
				ClanSize:  w.clanSize,
				ExecQueue: 256,
			},
		})
		if err != nil {
			return nil, 0, fmt.Errorf("node %d: %w", i, err)
		}
		n := &node{id: i, nd: nd, conn: -1, tr: tr, epoch: sinceStart(),
			ex: execution.NewExecutor(clanbft.NodeID(i), nil)}
		nd.OnCommit(n.hook)
		c.nodes = append(c.nodes, n)
	}
	for i, from := range c.nodes {
		for j, to := range c.nodes {
			if i == j {
				continue
			}
			r, err := newRelay(to.nd.Addr(), w.delay)
			if err != nil {
				return nil, 0, fmt.Errorf("relay %d->%d: %w", i, j, err)
			}
			c.relays = append(c.relays, r)
			from.nd.SetPeerAddr(clanbft.NodeID(j), r.Addr())
		}
	}

	// Payload proposers: the clan in clan mode, everyone otherwise. Gateways
	// go on the first two; reads are answered by the executors of the
	// gateway's clan, its own first.
	proposers := c.nodes
	if clans := c.nodes[0].nd.Clans(); len(clans) > 0 {
		proposers = nil
		for _, id := range clans[0] {
			proposers = append(proposers, c.nodes[id])
		}
	}
	for k := 0; k < conns; k++ {
		host := proposers[k]
		host.conn = k
		c.gwNode[k] = host
		responders := []clanbft.GatewayStateReader{clanbft.GatewayReaderFunc(host.ex.GetVersioned)}
		for _, p := range proposers {
			if p != host {
				responders = append(responders, clanbft.GatewayReaderFunc(p.ex.GetVersioned))
			}
		}
		gw, err := host.nd.ServeGateway(clanbft.GatewayOptions{
			Addr:       "127.0.0.1:0",
			Limits:     clanbft.GatewayLimits{ClientRate: 1e6},
			WriteQueue: 8192,
			Responders: responders,
		})
		if err != nil {
			return nil, 0, fmt.Errorf("gateway on node %d: %w", host.id, err)
		}
		c.gws[k] = gw
		cs[k].fc = host.nd.FaultBound()
	}
	for _, n := range c.nodes {
		n.nd.Start()
	}
	for k := 0; k < conns; k++ {
		cl, err := gateway.Dial(c.gws[k].Addr(), cs[k].onEvent)
		if err != nil {
			return nil, 0, fmt.Errorf("dial gateway %d: %w", k, err)
		}
		cs[k].cl = cl
	}
	in := cs[0].in
	probe := in.appendWrite(nil, 'r', in.probeKey(), tagRO, in.probeKey())
	if err := cs[0].cl.Submit(0, auxBase, probe); err != nil {
		return nil, 0, fmt.Errorf("probe: %w", err)
	}
	if _, err := cs[0].awaitAux(1, 30*time.Second, gateway.MsgCommit); err != nil {
		return nil, 0, fmt.Errorf("probe: %w", err)
	}
	ok = true
	return c, time.Since(start), nil
}

// crash closes one node mid-run, the way a process dies: its listener and
// connections go away and its relays tear down.
func (c *cluster) crash(n *node) {
	n.nd.Close()
	n.down = true
}

// close stops clients, gateways, nodes and relays, in that order, and waits
// for each.
func (c *cluster) close() {
	for _, s := range c.cs {
		if s != nil && s.cl != nil {
			s.cl.Close()
		}
	}
	for _, gw := range c.gws {
		if gw != nil {
			gw.Close()
		}
	}
	for _, n := range c.nodes {
		if !n.down {
			n.nd.Close()
			n.down = true
		}
	}
	for _, r := range c.relays {
		r.Close()
	}
}
