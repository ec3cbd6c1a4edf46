// Package power models where the watts go in a DVS-capable compute node
// and integrates them into energy over simulated time.
//
// The CPU model follows the paper's Section 2: dynamic power is
// proportional to C·f·V² (Equation 2) scaled by an activity factor that
// captures how hard the workload actually drives the core, plus a
// leakage term that depends on supply voltage only. Non-CPU components
// (memory, disk, NIC, board) contribute a base draw plus per-component
// active increments, so that — as with the paper's PowerPack suite — the
// power profile of each system component can be examined individually.
package power

import (
	"fmt"

	"repro/internal/dvfs"
	"repro/internal/sim"
)

// Watts is instantaneous power draw.
type Watts float64

// Joules is accumulated energy.
type Joules float64

// MilliwattHours converts energy to the mWh unit reported by ACPI smart
// batteries (1 mWh = 3.6 J).
func (j Joules) MilliwattHours() float64 { return float64(j) / 3.6 }

// JoulesFromMilliwattHours converts an ACPI capacity reading to joules.
//
//lint:range mwh [0,inf]
func JoulesFromMilliwattHours(mwh float64) Joules { return Joules(mwh * 3.6) }

// Component identifies a power-consuming subsystem of a node, matching
// the component breakdown PowerPack profiles.
type Component int

// The modeled node components.
const (
	CPU Component = iota
	Memory
	Disk
	NIC
	Board
	numComponents
)

// NumComponents is the number of modeled components, for sizing
// per-component arrays.
const NumComponents = int(numComponents)

// Components lists all modeled components in order.
func Components() []Component { return []Component{CPU, Memory, Disk, NIC, Board} }

// String names the component.
func (c Component) String() string {
	switch c {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case Disk:
		return "disk"
	case NIC:
		return "nic"
	case Board:
		return "board"
	default:
		return fmt.Sprintf("component(%d)", int(c))
	}
}

// CPUModel computes processor power from the operating point and an
// activity factor in [0,1]. Power is
//
//	P = activity · Ceff · f · V²  +  LeakPerV2 · V²
//
// with Ceff calibrated from the power at the highest operating point.
type CPUModel struct {
	// Ceff is the effective switched capacitance in watts per (Hz·V²).
	Ceff float64
	// LeakPerV2 is the leakage coefficient in watts per V².
	LeakPerV2 float64
	// IdleActivity is the activity floor of a halted core (clock
	// gating is imperfect; timer interrupts keep firing).
	IdleActivity float64
}

// NewCPUModel calibrates a CPUModel so that dynamic power at the table's
// highest operating point equals dynAtTop watts under full activity.
//
//lint:range dynAtTop [0,inf]
//lint:range idleActivity [0,1]
func NewCPUModel(table dvfs.Table, dynAtTop Watts, leakPerV2, idleActivity float64) CPUModel {
	top := table.Highest()
	ceff := float64(dynAtTop) / (float64(top.Freq) * top.Voltage * top.Voltage)
	return CPUModel{Ceff: ceff, LeakPerV2: leakPerV2, IdleActivity: idleActivity}
}

// Dynamic returns the dynamic (switching) power at op under the given
// activity factor, clamped to [IdleActivity, 1].
func (m CPUModel) Dynamic(op dvfs.OperatingPoint, activity float64) Watts {
	if activity < m.IdleActivity {
		activity = m.IdleActivity
	}
	if activity > 1 {
		activity = 1
	}
	return Watts(activity * m.Ceff * float64(op.Freq) * op.Voltage * op.Voltage)
}

// Leakage returns the static power at op's supply voltage.
func (m CPUModel) Leakage(op dvfs.OperatingPoint) Watts {
	return Watts(m.LeakPerV2 * op.Voltage * op.Voltage)
}

// Power returns total CPU power (dynamic + leakage) at op under the
// given activity factor.
func (m CPUModel) Power(op dvfs.OperatingPoint, activity float64) Watts {
	return m.Dynamic(op, activity) + m.Leakage(op)
}

// ComponentModel holds the non-CPU power budget of a node: a constant
// idle draw per component plus an increment while the component is
// actively used.
type ComponentModel struct {
	// Idle draw per component in watts (CPU entry unused).
	Idle [numComponents]Watts
	// Active increment per component in watts (CPU entry unused).
	Active [numComponents]Watts
}

// Integrator turns a piecewise-constant power signal into energy. Power
// changes are reported with SetPower; EnergyAt integrates exactly.
// The zero Integrator starts at the epoch drawing zero watts.
type Integrator struct {
	last    sim.Time
	power   Watts
	total   Joules
	started bool
}

// SetPower records that from time t onward the signal draws w watts.
// Calls must have nondecreasing t; regressions panic because they would
// corrupt the integral silently.
//
//lint:range w [0,inf]
//lint:hotpath every node power change integrates through here, five components per change
func (in *Integrator) SetPower(t sim.Time, w Watts) {
	in.advance(t)
	in.power = w
}

// AddEnergy deposits a discrete quantum of energy (e.g. a DVS
// transition's switching cost) at the current point of the integral.
//
//lint:range j [0,inf]
func (in *Integrator) AddEnergy(j Joules) { in.total += j }

// EnergyAt returns the energy accumulated from the epoch through t.
func (in *Integrator) EnergyAt(t sim.Time) Joules {
	if !in.started || t <= in.last {
		return in.total
	}
	return in.total + Joules(float64(in.power)*t.Sub(in.last).Seconds())
}

// Power returns the current power level of the signal.
func (in *Integrator) Power() Watts { return in.power }

// advance folds the elapsed interval into the running total.
func (in *Integrator) advance(t sim.Time) {
	if in.started && t < in.last {
		in.regressPanic(t)
	}
	if in.started && t > in.last {
		in.total += Joules(float64(in.power) * t.Sub(in.last).Seconds())
	}
	in.last = t
	in.started = true
}

// regressPanic reports a time regression. Kept out of advance so the
// integration path stays allocation-free.
func (in *Integrator) regressPanic(t sim.Time) {
	panic(fmt.Sprintf("power: SetPower time regressed: %v < %v", t, in.last)) //lint:allow panicfree (time-regression breaks the integrator; kernel invariant)
}
