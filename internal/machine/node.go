package machine

import (
	"fmt"

	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/sim"
)

// State is what the node's CPU is doing right now. It determines both
// the power draw and how the time is booked in the /proc/stat-style
// utilization counters that the cpuspeed governor samples.
type State int

// Node activity states.
const (
	// Idle: core halted; books as idle time.
	Idle State = iota
	// Compute: core-clocked work at full activity; books as busy.
	Compute
	// MemoryStall: core mostly stalled on DRAM; busy in /proc/stat
	// (the OS cannot tell a stall from work).
	MemoryStall
	// Copy: MPI buffer copies; busy.
	Copy
	// Spin: busy-wait polling for communication progress; busy.
	Spin
	// Blocked: parked in the kernel waiting for I/O; idle in /proc/stat.
	Blocked
	// Switching: stalled in a DVS transition; busy.
	Switching
	numStates
)

// States lists all node states in order.
func States() []State {
	return []State{Idle, Compute, MemoryStall, Copy, Spin, Blocked, Switching}
}

// String names the state.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Compute:
		return "compute"
	case MemoryStall:
		return "memstall"
	case Copy:
		return "copy"
	case Spin:
		return "spin"
	case Blocked:
		return "blocked"
	case Switching:
		return "switching"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// countsBusy reports whether time in this state appears as non-idle in
// /proc/stat. A spinning MPI library looks 100% busy to the OS, which is
// exactly why the cpuspeed daemon cannot find the slack (paper §4).
func (s State) countsBusy() bool {
	switch s {
	case Idle, Blocked:
		return false
	default:
		return true
	}
}

// FreqChange records one DVS transition for the PowerPack logs.
type FreqChange struct {
	At   sim.Time
	From dvfs.OperatingPoint
	To   dvfs.OperatingPoint
}

// nicEdge is one end of a NIC busy window: at t the count of open
// windows rises (on) or falls.
type nicEdge struct {
	t  sim.Time
	on bool
}

// Node is one cluster node: a DVS-capable CPU plus memory, disk, NIC and
// board power sinks, with exact per-component energy integration and
// utilization accounting.
type Node struct {
	id  int
	eng *sim.Engine
	par Params
	cpu power.CPUModel

	opIdx     int
	state     State
	stateSeq  uint64 // bumped on every state change; guards async restores
	lastFlush sim.Time

	// The spin fallback (see SpinFor): while stateSeq is still fallTok,
	// the node falls from Spin to Blocked at fallAt.
	fallAt  sim.Time
	fallTok uint64

	// NIC busy windows (see NICBusy). nicOpen counts the windows open as
	// of the last applied edge; while it is positive the NIC draws
	// NICActive on top of NICIdle. nicEdges[nicHead:] are the edges not
	// yet applied, ordered by time and, at equal times, by booking
	// order.
	nicOpen  int
	nicEdges []nicEdge
	nicHead  int

	integ [power.NumComponents]power.Integrator // indexed by power.Component

	busy, idle sim.Duration
	stateTime  [numStates]sim.Duration

	freqLog []FreqChange // one entry per DVS transition
}

// NewNode builds a node with the given id running at the highest
// operating point, idle.
func NewNode(eng *sim.Engine, id int, par Params) *Node {
	n := &Node{
		id:       id,
		eng:      eng,
		par:      par,
		cpu:      par.CPUModel(),
		stateSeq: 1, // the zero fallTok never matches: no fall is booked
	}
	n.lastFlush = eng.Now()
	n.applyPower(n.lastFlush)
	return n
}

// ID returns the node's index in the cluster.
func (n *Node) ID() int { return n.id }

// Params returns the node's model parameters.
func (n *Node) Params() Params { return n.par }

// Engine returns the simulation engine the node lives on.
func (n *Node) Engine() *sim.Engine { return n.eng }

// OperatingPoint returns the current DVS setting.
func (n *Node) OperatingPoint() dvfs.OperatingPoint { return n.par.Table.At(n.opIdx) }

// OPIndex returns the index of the current operating point in the table
// (0 = fastest).
func (n *Node) OPIndex() int { return n.opIdx }

// State returns the current activity state.
func (n *Node) State() State {
	n.settleFall()
	return n.state
}

// activity maps the current state to a CPU activity factor.
func (n *Node) activity() float64 {
	switch n.state {
	case Compute, Switching:
		return n.par.ActivityCompute
	case MemoryStall:
		return n.par.ActivityMemory
	case Copy:
		return n.par.ActivityCopy
	case Spin:
		return n.par.ActivitySpin
	case Blocked:
		return n.par.ActivityBlocked
	default:
		return n.par.CPUIdleActivity
	}
}

// applyPower refreshes every component integrator at time now.
func (n *Node) applyPower(now sim.Time) {
	op := n.par.Table.At(n.opIdx)
	n.integ[power.CPU].SetPower(now, n.cpu.Power(op, n.activity()))
	memW := n.par.MemoryIdle
	if n.state == MemoryStall || n.state == Copy {
		memW += n.par.MemoryActive
	}
	n.integ[power.Memory].SetPower(now, memW)
	n.integ[power.Disk].SetPower(now, n.par.DiskIdle)
	nicW := n.par.NICIdle
	if n.nicOpen > 0 {
		nicW += n.par.NICActive
	}
	n.integ[power.NIC].SetPower(now, nicW)
	n.integ[power.Board].SetPower(now, n.par.BoardIdle)
}

// flushTime books the interval up to now into the utilization and
// per-state counters.
func (n *Node) flushTime(now sim.Time) {
	d := now.Sub(n.lastFlush)
	if d > 0 {
		n.stateTime[n.state] += d
		if n.state.countsBusy() {
			n.busy += d
		} else {
			n.idle += d
		}
	}
	n.lastFlush = now
}

// SetState switches the node's activity state at the current time. It
// is safe to call from process bodies and from event callbacks (the MPI
// library's Isend records use the latter).
func (n *Node) SetState(s State) {
	n.settleFall()
	if s == n.state {
		return
	}
	now := n.eng.Now()
	n.settleNIC(now)
	n.flushTime(now)
	n.state = s
	n.stateSeq++
	n.applyPower(now)
}

// StateToken captures the current state-change sequence number. Paired
// with RestoreState it lets asynchronous actors (governor daemons, the
// MPI progress engine) change the state later only if nothing else
// intervened.
func (n *Node) StateToken() uint64 {
	n.settleFall()
	return n.stateSeq
}

// RestoreState sets the state to s only if no state change happened
// since the token was taken, and reports whether it applied.
func (n *Node) RestoreState(token uint64, s State) bool {
	n.settleFall()
	if n.stateSeq == token {
		n.SetState(s)
		return true
	}
	return false
}

// NICBusy marks the NIC as transferring over [from, to]: its draw rises
// by NICActive at from and falls back at to, unless another window is
// still open then. Windows may overlap or touch; a zero-length window
// does nothing. It must be called from the node's own shard, with from
// no earlier than the engine's clock.
//
// The window is node data, not events. Before every power change and
// every read, the node applies each pending edge strictly before the
// engine's current time, at the edge's own time: a change of the
// open-window count between zero and one splits the utilization
// counters and every component's integral there, as a state change at
// that instant would. Edges at equal times apply in booking order. A
// read at an edge's own instant therefore sees the power from before
// the edge, like an observer that runs before the events at its time.
func (n *Node) NICBusy(from, to sim.Time) {
	if to <= from {
		return
	}
	n.bookNICEdge(nicEdge{t: from, on: true})
	n.bookNICEdge(nicEdge{t: to})
}

// bookNICEdge inserts e after every pending edge at or before its time.
// Bookings arrive nearly in time order, so the scan from the back is
// short. Applied edges are reclaimed before the list would grow.
func (n *Node) bookNICEdge(e nicEdge) {
	if n.nicHead > 0 && len(n.nicEdges) == cap(n.nicEdges) {
		n.nicEdges = n.nicEdges[:copy(n.nicEdges, n.nicEdges[n.nicHead:])]
		n.nicHead = 0
	}
	n.nicEdges = append(n.nicEdges, e)
	i := len(n.nicEdges) - 1
	for ; i > n.nicHead && n.nicEdges[i-1].t > e.t; i-- {
		n.nicEdges[i] = n.nicEdges[i-1]
	}
	n.nicEdges[i] = e
}

// SpinFor puts the node in Spin, as SetState(Spin) does, and books its
// fall back to Blocked d from now: a busy-polling wait that gives up
// and blocks in the kernel. A negative d books nothing, so the node
// spins until the state changes.
//
// The fall is node data, as NIC windows are: it applies lazily at its
// own time, strictly before the engine's current time, ahead of any
// NIC edge at or after it, and only if the state has not changed since
// the booking. A read or state change at the fall's own instant
// therefore still sees Spin. One uninterrupted Spin holds at most one
// booking, the first: with one d, as MPI uses, a later SpinFor in it
// would fall after the first booking does, so only the first can ever
// apply. A Spin entered by SetState gets its booking from the first
// SpinFor inside it.
//
//lint:hotpath every MPI wait starts here
func (n *Node) SpinFor(d sim.Duration) {
	n.SetState(Spin)
	if d >= 0 && n.fallTok != n.stateSeq {
		n.fallTok = n.stateSeq
		n.fallAt = n.eng.Now().Add(d)
	}
}

// settleFall applies the booked fall once its time is strictly past
// (see SpinFor). It is small enough to inline into every state read.
func (n *Node) settleFall() {
	if n.fallTok == n.stateSeq && n.fallAt < n.eng.Now() {
		n.fall()
	}
}

// fall moves the node from Spin to Blocked at fallAt, after the NIC
// edges before it.
func (n *Node) fall() {
	n.settleNIC(n.fallAt)
	n.flushTime(n.fallAt)
	n.state = Blocked
	n.stateSeq++
	n.applyPower(n.fallAt)
}

// settle applies the pending fall and then every NIC edge strictly
// before the engine's current time.
func (n *Node) settle() {
	n.settleFall()
	n.settleNIC(n.eng.Now())
}

// settleNIC applies, in order, every pending NIC edge strictly before
// t (see NICBusy). The check inlines into its callers; applyNIC does
// the work.
func (n *Node) settleNIC(t sim.Time) {
	if n.nicHead < len(n.nicEdges) && n.nicEdges[n.nicHead].t < t {
		n.applyNIC(t)
	}
}

// applyNIC applies the pending NIC edges strictly before t and
// reclaims the list once none is left.
func (n *Node) applyNIC(t sim.Time) {
	for n.nicHead < len(n.nicEdges) && n.nicEdges[n.nicHead].t < t {
		e := n.nicEdges[n.nicHead]
		n.nicHead++
		var flips bool
		if e.on {
			n.nicOpen++
			flips = n.nicOpen == 1
		} else {
			n.nicOpen--
			flips = n.nicOpen == 0
		}
		if flips {
			n.flushTime(e.t)
			n.applyPower(e.t)
		}
	}
	if n.nicHead == len(n.nicEdges) {
		n.nicEdges = n.nicEdges[:0]
		n.nicHead = 0
	}
}

// CoreDuration converts core-clocked cycles at the current operating
// point into time, including the small bus-ratio stall penalty. Code
// that charges work from event context rather than from a process (the
// MPI library's Isend) converts with it when the charge starts
// and brackets the charge with SetState and RestoreState, as the work
// primitives do.
func (n *Node) CoreDuration(cycles float64) sim.Duration {
	if cycles <= 0 {
		return 0
	}
	op := n.par.Table.At(n.opIdx)
	fmax := float64(n.par.Table.Highest().Freq)
	f := float64(op.Freq)
	penalty := 1 + n.par.StallPenalty*(fmax/f-1)
	return sim.DurationOf(cycles / f * penalty)
}

// Compute runs cycles of core-clocked work: the node is in the Compute
// state for cycles/f (plus the stall penalty) and then returns to Idle.
// Every MPI overhead charge and most workload inner loops funnel
// through here (the end-to-end figure profile puts it near 10%
// cumulative), so it is a hotpath root of its own: the whole
// duration-conversion + inState subtree must stay allocation-free.
//
//lint:hotpath
//lint:range cycles [0,inf]
func (n *Node) Compute(p *sim.Proc, cycles float64) {
	n.inState(p, Compute, n.CoreDuration(cycles))
}

// ComputeFlops is Compute with work expressed in floating-point
// operations, converted via the sustained FlopsPerCycle rate.
//
//lint:range flops [0,inf]
func (n *Node) ComputeFlops(p *sim.Proc, flops float64) {
	n.Compute(p, flops/n.par.FlopsPerCycle)
}

// MemoryRounds performs accesses DRAM round trips: each pays the fixed
// DRAM latency plus a small core-clocked overhead, so the total time is
// only weakly frequency dependent — the slack DVS exploits (Fig. 6).
// The synthetic-campaign inner loops funnel through here (~16%
// cumulative in the campaign profile), so like Compute it is its own
// hotpath root.
//
//lint:hotpath
func (n *Node) MemoryRounds(p *sim.Proc, accesses int64) {
	if accesses <= 0 {
		return
	}
	core := n.CoreDuration(float64(accesses) * n.par.MemCyclesPerAccess)
	total := core + sim.Duration(accesses)*n.par.MemLatency
	n.inState(p, MemoryStall, total)
}

// L2Rounds performs accesses L2-cache round trips. The L2 is on-die and
// core-clocked, so this is CPU-bound work (Fig. 7).
func (n *Node) L2Rounds(p *sim.Proc, accesses int64) {
	if accesses <= 0 {
		return
	}
	n.inState(p, Compute, n.CoreDuration(float64(accesses)*n.par.L2CyclesPerAccess))
}

// CopyBytes models an MPI buffer copy of size bytes: memory-bound
// store-heavy work at roughly one access per cache line.
func (n *Node) CopyBytes(p *sim.Proc, bytes int64) {
	if bytes <= 0 {
		return
	}
	const lineBytes = 64
	lines := (bytes + lineBytes - 1) / lineBytes
	// Copies stream through caches with hardware prefetch: cheaper per
	// line than dependent-load MemoryRounds by roughly 4x.
	core := n.CoreDuration(float64(lines) * n.par.MemCyclesPerAccess)
	total := core + sim.Duration(lines)*n.par.MemLatency/4
	n.inState(p, Copy, total)
}

// CopyCycles runs core-clocked work in the Copy state; the MPI layer
// uses it for buffer copies and checksumming whose cost it expresses in
// cycles directly. Every MPI message's byte cost funnels through here
// (over 5% cumulative in the 256-rank profile), so like Compute it is
// its own hotpath root.
//
//lint:hotpath
func (n *Node) CopyCycles(p *sim.Proc, cycles float64) {
	n.inState(p, Copy, n.CoreDuration(cycles))
}

// IdleFor parks the node idle for d.
//
//lint:range d [0,inf]
func (n *Node) IdleFor(p *sim.Proc, d sim.Duration) {
	n.inState(p, Idle, d)
}

// inState runs the process through a timed segment in state s, then
// returns the node to Idle (unless something else changed the state
// during the segment, e.g. a concurrent helper process).
//
// Every work primitive (Compute, MemoryRounds, CopyBytes, ...) funnels
// through here, so a campaign crosses it once per work segment — a CPU
// profile of the campaign benchmark put it at ~26% cumulative. The
// hotpath root keeps the whole state-accounting subtree (SetState,
// flushTime, applyPower, RestoreState) allocation-free.
//
//lint:hotpath
func (n *Node) inState(p *sim.Proc, s State, d sim.Duration) {
	n.SetState(s)
	token := n.StateToken()
	p.Sleep(d)
	n.RestoreState(token, Idle)
}

// SetOperatingPointIndex moves the CPU to the operating point at index
// idx, stalling the caller for the transition latency and booking the
// transition energy. Work segments already in flight keep the duration
// computed at their start; the new frequency applies from the next
// segment (the model's granularity of error is one work segment).
// It returns an error (and changes nothing) if idx is out of range.
func (n *Node) SetOperatingPointIndex(p *sim.Proc, idx int) error {
	if idx == n.opIdx {
		return nil
	}
	if err := n.checkIdx(idx); err != nil {
		return err
	}
	prev := n.State()
	n.SetState(Switching)
	token := n.StateToken()
	p.Sleep(n.par.Transition.Latency)
	n.commitOP(idx)
	n.RestoreState(token, prev)
	return nil
}

// SetOperatingPointIndexAsync performs the transition from event context
// (used by governor daemons driven by timers): the stall is modeled by
// the Switching state lasting the transition latency, after which the
// previous state is restored unless the workload changed state meanwhile.
// It returns an error (and changes nothing) if idx is out of range.
func (n *Node) SetOperatingPointIndexAsync(idx int) error {
	if idx == n.opIdx {
		return nil
	}
	if err := n.checkIdx(idx); err != nil {
		return err
	}
	prev := n.State()
	n.SetState(Switching)
	token := n.StateToken()
	n.commitOP(idx)
	n.eng.After(n.par.Transition.Latency, func() {
		n.RestoreState(token, prev)
	})
	return nil
}

func (n *Node) checkIdx(idx int) error {
	if idx < 0 || idx >= n.par.Table.Len() {
		return fmt.Errorf("machine: operating point index %d out of range [0,%d)", idx, n.par.Table.Len())
	}
	return nil
}

func (n *Node) commitOP(idx int) {
	n.settle()
	now := n.eng.Now()
	from := n.par.Table.At(n.opIdx)
	to := n.par.Table.At(idx)
	n.opIdx = idx
	n.freqLog = append(n.freqLog, FreqChange{At: now, From: from, To: to})
	n.integ[power.CPU].AddEnergy(power.Joules(n.par.Transition.Energy))
	n.applyPower(now)
}

// SetFrequency moves to the table point closest to freq (blocking form).
func (n *Node) SetFrequency(p *sim.Proc, freq dvfs.Hz) error {
	return n.SetOperatingPointIndex(p, n.par.Table.IndexOf(n.par.Table.ClosestTo(freq).Freq)) //lint:allow rangecheck (the frequency is a row of the same table, so IndexOf cannot return its -1 miss sentinel)
}

// Transitions reports how many DVS switches the node has performed.
func (n *Node) Transitions() int { return len(n.freqLog) }

// FreqLog returns the recorded DVS transitions.
func (n *Node) FreqLog() []FreqChange { return n.freqLog }

// Utilization returns the cumulative busy and idle time as the OS would
// report them in /proc/stat, up to the current instant.
func (n *Node) Utilization() (busy, idle sim.Duration) {
	return n.UtilizationAt(n.eng.Now())
}

// StateTime reports the cumulative time spent in state s.
func (n *Node) StateTime(s State) sim.Duration {
	return n.StateTimeAt(s, n.eng.Now())
}

// UtilizationAt is Utilization evaluated at a (recent) past instant t:
// the counters are extrapolated through t instead of the engine clock.
// Like power.Integrator.EnergyAt, the answer clamps at the last state
// change or NIC window edge before the engine clock, so it is exact
// whenever neither happened since t — the case that matters for
// back-dated end-of-run snapshots taken a lookahead window after the
// fact.
func (n *Node) UtilizationAt(t sim.Time) (busy, idle sim.Duration) {
	n.settle()
	d := t.Sub(n.lastFlush)
	busy, idle = n.busy, n.idle
	if d > 0 {
		if n.state.countsBusy() {
			busy += d
		} else {
			idle += d
		}
	}
	return busy, idle
}

// StateTimeAt is StateTime evaluated at a (recent) past instant t,
// with the same clamping rule as UtilizationAt.
func (n *Node) StateTimeAt(s State, t sim.Time) sim.Duration {
	n.settle()
	d := n.stateTime[s]
	if n.state == s {
		if extra := t.Sub(n.lastFlush); extra > 0 {
			d += extra
		}
	}
	return d
}

// TransitionsAt reports how many DVS switches the node had performed
// through time t.
func (n *Node) TransitionsAt(t sim.Time) int {
	c := len(n.freqLog)
	for c > 0 && n.freqLog[c-1].At > t {
		c--
	}
	return c
}

// EnergyAt returns the node's total energy consumed through time t,
// summed over all components.
func (n *Node) EnergyAt(t sim.Time) power.Joules {
	n.settle()
	var sum power.Joules
	for _, c := range power.Components() {
		sum += n.integ[c].EnergyAt(t)
	}
	return sum
}

// ComponentEnergyAt returns the energy consumed by one component
// through time t.
func (n *Node) ComponentEnergyAt(c power.Component, t sim.Time) power.Joules {
	n.settle()
	return n.integ[c].EnergyAt(t)
}

// Power returns the node's instantaneous total draw: the sum of
// ComponentPowers in component order.
func (n *Node) Power() power.Watts {
	var sum power.Watts
	for _, w := range n.ComponentPowers() {
		sum += w
	}
	return sum
}

// ComponentPowers settles the node once and returns every component's
// instantaneous draw, indexed by power.Component.
func (n *Node) ComponentPowers() [power.NumComponents]power.Watts {
	n.settle()
	var w [power.NumComponents]power.Watts
	for c := range n.integ {
		w[c] = n.integ[c].Power()
	}
	return w
}
