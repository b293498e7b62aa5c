// Package network is an in-process broadcast fabric connecting proposer and
// validator nodes: every published block is delivered to every other node's
// inbox, optionally after a simulated propagation delay. It stands in for
// the devp2p gossip layer of the paper's Geth prototype — the execution
// framework under test only cares that blocks arrive, possibly out of
// order and in fork multiples.
//
// Fault injection: every directed link can be configured (SetLinkFaults /
// SetDefaultFaults) with probabilistic drop, duplication, reordering and
// extra per-link delay, and the node set can be split into partitions
// (SetPartitions). Fault decisions are drawn from a single seeded PRNG
// under the fabric mutex, so a fixed seed plus a serialized broadcast
// sequence replays the exact same fault pattern — the property the cluster
// simulator (internal/sim) relies on for reproducible runs.
package network

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blockpilot/internal/telemetry"
	"blockpilot/internal/trace"
	"blockpilot/internal/types"
)

// Message is one delivered broadcast. Trace carries the sender's block
// tracing context (internal/trace) so validator-side spans stitch onto the
// proposer's trace; it is three integers, so it serializes trivially once
// the fabric moves to a real wire.
type Message struct {
	From  string
	Block *types.Block
	Trace trace.Context
}

// LinkFaults configures injected faults on one directed link (from → to).
// Zero value = perfect link.
type LinkFaults struct {
	Drop       float64       // probability a message is silently lost
	Duplicate  float64       // probability a message is delivered twice
	Reorder    float64       // probability a message is held back and delivered after the link's next message
	ExtraDelay time.Duration // additional propagation delay on this link
}

// linkKey identifies a directed link.
type linkKey struct{ from, to string }

// Network is the shared fabric.
type Network struct {
	mu      sync.Mutex
	nodes   map[string]*Node
	latency time.Duration
	closed  bool
	deliver sync.WaitGroup

	// Fault-injection state (all guarded by mu).
	rng      *rand.Rand
	faults   map[linkKey]LinkFaults
	defaults LinkFaults
	groups   map[string]int       // node → partition group (absent = unpartitioned)
	held     map[linkKey]*Message // one-deep reorder holdback per link

	// tracer, when set, overrides the process-global trace collector for
	// span context attachment and transfer spans (the simulator runs
	// several fabrics concurrently and injects one collector per run).
	tracer atomic.Pointer[trace.Collector]
}

// SetTracer injects a block-trace collector for this fabric. Passing nil
// reverts to the process-global collector (trace.Active).
func (n *Network) SetTracer(c *trace.Collector) { n.tracer.Store(c) }

// New creates a fabric with the given simulated propagation latency.
// Fault decisions default to seed 1; use SeedFaults to change.
func New(latency time.Duration) *Network {
	return &Network{
		nodes:   make(map[string]*Node),
		latency: latency,
		rng:     rand.New(rand.NewSource(1)),
		faults:  make(map[linkKey]LinkFaults),
		groups:  make(map[string]int),
		held:    make(map[linkKey]*Message),
	}
}

// SeedFaults reseeds the fault-decision PRNG. Calling it at the start of a
// run makes the fault pattern a pure function of (seed, broadcast sequence).
func (n *Network) SeedFaults(seed int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rng = rand.New(rand.NewSource(seed))
}

// SetLinkFaults configures the directed link from → to.
func (n *Network) SetLinkFaults(from, to string, f LinkFaults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults[linkKey{from, to}] = f
}

// SetDefaultFaults configures every link without an explicit SetLinkFaults
// entry (including links to nodes that join later).
func (n *Network) SetDefaultFaults(f LinkFaults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaults = f
}

// SetPartitions splits the fabric: a message is blocked iff both endpoints
// are assigned to (different) groups. Nodes not named in any group keep
// full connectivity. Replaces any previous partition.
func (n *Network) SetPartitions(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = make(map[string]int)
	for g, names := range groups {
		for _, name := range names {
			n.groups[name] = g
		}
	}
}

// Heal removes any active partition.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = make(map[string]int)
}

// faultsFor returns the effective fault config for a link. Caller holds mu.
func (n *Network) faultsFor(k linkKey) LinkFaults {
	if f, ok := n.faults[k]; ok {
		return f
	}
	return n.defaults
}

// blocked reports whether an active partition separates from and to.
// Caller holds mu.
func (n *Network) blocked(from, to string) bool {
	gf, okf := n.groups[from]
	gt, okt := n.groups[to]
	return okf && okt && gf != gt
}

// Node is one participant's endpoint.
type Node struct {
	name  string
	net   *Network
	inbox chan Message
}

// Join registers a node. Buffer bounds the inbox; publishing to a full
// inbox drops the message for that node (slow-consumer semantics).
// Joining a closed network returns a node whose inbox is already closed.
func (n *Network) Join(name string, buffer int) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	node := &Node{name: name, net: n, inbox: make(chan Message, buffer)}
	if n.closed {
		close(node.inbox)
		return node
	}
	n.nodes[name] = node
	return node
}

// Inbox delivers broadcasts from other nodes.
func (node *Node) Inbox() <-chan Message { return node.inbox }

// Name returns the node's identity.
func (node *Node) Name() string { return node.name }

// delivery is one scheduled inbox send, planned under the fabric mutex and
// executed outside it.
type delivery struct {
	target *Node
	msg    Message
	delay  time.Duration
}

// Broadcast publishes a block to every other node, applying per-link fault
// configuration. Targets are visited in sorted-name order so the fault
// PRNG consumption — and therefore the whole fault pattern — is
// deterministic for a serialized broadcast sequence.
func (node *Node) Broadcast(block *types.Block) {
	n := node.net
	msg := Message{From: node.name, Block: block}
	if tr := trace.Resolve(n.tracer.Load()); tr != nil {
		msg.Trace = tr.ContextFor(block.Hash())
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	names := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		if name != node.name {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var plan []delivery
	for _, name := range names {
		t := n.nodes[name]
		k := linkKey{node.name, name}
		if n.blocked(node.name, name) {
			telemetry.NetworkPartitionBlocked.Inc()
			continue
		}
		f := n.faultsFor(k)
		delay := n.latency + f.ExtraDelay

		// A held-back message is released right after the current one,
		// whatever happens to the current one next (the swap that Reorder
		// promised). Pull it first so a dropped current message still
		// releases it.
		var release *Message
		if h := n.held[k]; h != nil {
			release = h
			delete(n.held, k)
		}

		switch {
		case f.Drop > 0 && n.rng.Float64() < f.Drop:
			telemetry.NetworkFaultDrops.Inc()
		case f.Reorder > 0 && release == nil && n.rng.Float64() < f.Reorder:
			m := msg
			n.held[k] = &m
			telemetry.NetworkFaultReorders.Inc()
		default:
			plan = append(plan, delivery{target: t, msg: msg, delay: delay})
			if f.Duplicate > 0 && n.rng.Float64() < f.Duplicate {
				plan = append(plan, delivery{target: t, msg: msg, delay: delay})
				telemetry.NetworkFaultDups.Inc()
			}
		}
		if release != nil {
			plan = append(plan, delivery{target: t, msg: *release, delay: delay})
		}
	}
	n.deliver.Add(len(plan))
	n.mu.Unlock()

	n.execute(plan)
}

// execute performs planned deliveries; the deliver WaitGroup was already
// incremented for each entry.
func (n *Network) execute(plan []delivery) {
	for _, d := range plan {
		if d.delay == 0 {
			n.send(d.target, d.msg)
			continue
		}
		d := d
		time.AfterFunc(d.delay, func() { n.send(d.target, d.msg) })
	}
}

func (n *Network) send(t *Node, msg Message) {
	defer n.deliver.Done()
	select {
	case t.inbox <- msg:
		telemetry.NetworkMessages.Inc()
		if tr := trace.Resolve(n.tracer.Load()); tr != nil && msg.Trace.TraceID != 0 {
			tr.Delivered(msg.From, t.name, msg.Block.Header.Number, msg.Block.Hash(), msg.Trace)
		}
	default: // slow consumer: drop
		telemetry.NetworkDropped.Inc()
	}
}

// Flush releases every reorder-held message to its link (in deterministic
// link order) and waits for all in-flight deliveries — including delayed
// ones — to land. Call it before draining inboxes at a run boundary.
func (n *Network) Flush() {
	n.mu.Lock()
	keys := make([]linkKey, 0, len(n.held))
	for k := range n.held {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	var plan []delivery
	for _, k := range keys {
		if t, ok := n.nodes[k.to]; ok {
			plan = append(plan, delivery{target: t, msg: *n.held[k]})
		}
		delete(n.held, k)
	}
	n.deliver.Add(len(plan))
	n.mu.Unlock()

	n.execute(plan)
	n.deliver.Wait()
}

// Close flushes pending deliveries (including reorder holdbacks) and closes
// every inbox. The deliver WaitGroup is waited *after* the closed flag is
// set under the mutex, so no Broadcast can add new deliveries once Close has
// begun — inboxes are only closed when every in-flight send has finished,
// which is what keeps the delayed-delivery goroutines from racing a closed
// channel.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	nodes := make([]*Node, 0, len(n.nodes))
	for _, node := range n.nodes {
		nodes = append(nodes, node)
	}
	// Release reorder holdbacks so no message is silently lost at shutdown.
	var plan []delivery
	for k, m := range n.held {
		if t, ok := n.nodes[k.to]; ok {
			plan = append(plan, delivery{target: t, msg: *m})
		}
		delete(n.held, k)
	}
	n.deliver.Add(len(plan))
	n.mu.Unlock()

	n.execute(plan)
	n.deliver.Wait()
	for _, node := range nodes {
		close(node.inbox)
	}
}
