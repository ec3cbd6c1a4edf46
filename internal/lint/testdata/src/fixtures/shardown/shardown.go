// Package shardown_fixture seeds one violation of each shard-ownership
// rule — a per-rank slot written at a foreign index, a foreign-slot
// read, a whole-slot capture, scheduling on another shard's engine, a
// write to a captured coordinator local, and the reconstructed PR 7
// rendezvous collision (receiver-side state keyed from a sender-shard
// closure) — next to the clean shapes (own-index slot writes, engine
// aliases, annotated relays, coordinator globals) that must stay quiet.
package shardown_fixture

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// ForeignSlotWrite infers `finished` as a per-rank slot from the
// own-index writes, then catches the cross-shard write.
func ForeignSlotWrite(g *sim.Group) {
	finished := make([]bool, g.Size())
	for i := 0; i < g.Size(); i++ {
		i := i
		g.Post(i, 5, 0, 0, func() {
			finished[i] = true // own index: clean
		})
	}
	g.Post(0, 6, 0, 0, func() {
		finished[1] = true // want `write to per-rank slot finished\[1\] from the shard owning shard 0`
	})
}

// ForeignSlotRead catches the read at a neighbour's index; len is fine.
func ForeignSlotRead(g *sim.Group) {
	ready := make([]bool, g.Size())
	for i := 0; i < g.Size(); i++ {
		i := i
		g.Post(i, 5, 0, 0, func() {
			ready[i] = true
			if i > 0 && ready[i-1] { // want `access to per-rank slot ready\[i - 1\] from the shard owning shard i`
				return
			}
			_ = len(ready) // len does not touch foreign elements: clean
		})
	}
}

// WholeSlotCapture passes the whole slot slice out of a shard closure.
func WholeSlotCapture(g *sim.Group, report func([]bool)) {
	done := make([]bool, g.Size())
	for i := 0; i < g.Size(); i++ {
		i := i
		g.Post(i, 5, 0, 0, func() {
			done[i] = true
			report(done) // want `per-rank slot slice "done" captured as a whole in the shard owning shard i`
		})
	}
}

// AnnotatedSlot shows the explicit form: the annotation marks the
// ownership directly, no inferring write needed.
func AnnotatedSlot(g *sim.Group) {
	counts := make([]int, g.Size()) //lint:ownedby rank
	g.Post(2, 5, 0, 0, func() {
		counts[0]++ // want `write to per-rank slot counts\[0\] from the shard owning shard 2`
	})
}

// CrossSchedule schedules directly onto another shard's engine.
func CrossSchedule(g *sim.Group) {
	g.Post(0, 5, 0, 0, func() {
		g.Engine(1).Schedule(6, func() {}) // want `Schedule on the engine owned by shard 1 from the shard owning shard 0`
	})
}

// CapturedCoordinatorWrite mutates coordinator state from a shard:
// captured locals are window-barrier globals, read-only inside shards.
func CapturedCoordinatorWrite(g *sim.Group) int {
	total := 0
	g.Post(0, 5, 0, 0, func() {
		total++ // want `write to "total", a captured local of the enclosing function, from the shard owning shard 0`
	})
	_, _ = g.Run(100)
	return total
}

// CapturedReadClean reads coordinator state from a shard — sanctioned.
func CapturedReadClean(g *sim.Group, limit sim.Time) {
	g.Post(0, 5, 0, 0, func() {
		deadline := limit.Add(10)
		_ = deadline
	})
}

// EngineAliasClean schedules a node's own method on the node's own
// engine: ownership resolves through range variables, method calls,
// and field selections.
func EngineAliasClean(nodes []*machine.Node) {
	for i, n := range nodes {
		eng := n.Engine()
		eng.Schedule(sim.Time(i), func() {
			n.NICBusy(sim.Time(i), sim.Time(i+1))
		})
	}
}

// CrossNodeSchedule reaches a ring neighbour's engine from inside a
// node's own closure.
func CrossNodeSchedule(nodes []*machine.Node, ring []int) {
	for i, n := range nodes {
		next := nodes[ring[i]]
		n.Engine().Schedule(5, func() {
			next.Engine().Schedule(6, func() {}) // want `Schedule on the engine owned by rank ring\[i\] from the shard owning rank i`
		})
	}
}

// peer mirrors the mpi rendezvous bookkeeping: per-rank wait maps
// keyed by send handles.
//
//lint:ownedby rank
type peer struct {
	eng      *sim.Engine
	dataWait map[int]func()
}

func (p *peer) engine() *sim.Engine { return p.eng }

// RendezvousCollision reconstructs the PR 7 mpi bug: the sender-side
// closure books the receiver's dataWait map under a handle allocated
// from the sender's counter, so concurrent senders collide on the key
// — and the write itself races with the receiver's shard.
func RendezvousCollision(peers []*peer, src, dst, handle int) {
	sender := peers[src]
	recv := peers[dst]
	sender.engine().Schedule(5, func() {
		recv.dataWait[handle] = func() {} // want `access to state owned by rank dst from the shard owning rank src`
	})
}

// post relays fn to the shard owning rank dst, the way mpi.World.post
// does.
//
//lint:ownedby rank dst
func post(g *sim.Group, shardOf []int, dst int, t sim.Time, fn func()) {
	g.Post(shardOf[dst], t, 0, 0, fn)
}

func pairKey(src, handle int) int { return src<<16 | handle }

// RendezvousFixed is the corrected shape: the booking runs on the
// receiver's shard (via the annotated relay) under a sender-scoped key.
func RendezvousFixed(g *sim.Group, shardOf []int, peers []*peer, src, dst, handle int) {
	post(g, shardOf, dst, 5, func() {
		me := peers[dst]
		me.dataWait[pairKey(src, handle)] = func() {}
	})
}

// flushAll runs its argument at the window barrier on behalf of the
// coordinator.
//
//lint:ownedby coordinator
func flushAll(g *sim.Group, fn func()) { g.ScheduleGlobal(5, 0, fn) }

// CoordinatorRelayClean: closures handed to a coordinator-annotated
// relay run sequentially at the barrier and may write captured locals.
func CoordinatorRelayClean(g *sim.Group) int {
	total := 0
	flushAll(g, func() { total++ })
	return total
}

// BoundLiteral shows ident-bound closures classified by their use
// site: handler is handed to shard 1, so the write at index 0 is
// foreign.
func BoundLiteral(g *sim.Group) {
	acks := make([]int, g.Size()) //lint:ownedby rank
	handler := func() {
		acks[0]++ // want `write to per-rank slot acks\[0\] from the shard owning shard 1`
	}
	g.Post(1, 5, 0, 0, handler)
}

// SuppressedCross shows the escape hatch; the analyzer must stay
// silent.
func SuppressedCross(g *sim.Group) {
	g.Post(0, 5, 0, 0, func() {
		g.Engine(1).Schedule(6, func() {}) //lint:allow shardown (window-local handoff audited by hand)
	})
}

//lint:ownedby sideways // want `malformed //lint:ownedby directive`
func Sideways(g *sim.Group) { _ = g }

//lint:ownedby rank ghost // want `function Relay has no parameter "ghost"`
func Relay(g *sim.Group, fn func()) { g.ScheduleGlobal(5, 0, fn) }

//lint:ownedby rank // want `dangling //lint:ownedby directive`
var orphanHandles int
