// Package core implements the paper's analytic contribution: the
// weighted energy-delay-squared metric (Equation 5)
//
//	weighted ED2P = E^(1-d) × D^(2(1+d)),   -1 ≤ d ≤ 1
//
// the "best operating point" selection rule built on it (Equation 6),
// and the energy-delay "crescendo" representation used throughout the
// evaluation (normalized energy/delay across the operating points, as
// in Figures 1, 3, 6, 7 and 8).
package core

import (
	"fmt"
	"math"

	"repro/internal/dvfs"
)

// Weight-factor presets from the paper: d = 0.2 expresses the
// power-performance priorities of high-performance computing; d = -1
// puts all weight on energy (metric reduces to E²); d = 1 puts all
// weight on performance (metric reduces to D⁴).
const (
	DeltaHPC         = 0.2
	DeltaEnergy      = -1.0
	DeltaPerformance = 1.0
	DeltaED2P        = 0.0 // plain energy-delay-squared product
)

// ED2P returns the classic energy-delay-squared product E·D².
func ED2P(energy, delay float64) float64 {
	return energy * delay * delay
}

// WeightedED2P evaluates Equation 5 for energy E and delay D (any
// consistent units; normalized values keep magnitudes sane). It panics
// if d is outside [-1, 1] or if E or D is not positive, since the
// power-law form is meaningless there.
func WeightedED2P(energy, delay, d float64) float64 {
	if d < -1 || d > 1 {
		panic(fmt.Sprintf("core: weight factor %v outside [-1,1]", d)) //lint:allow panicfree (metric-domain validation; weights and fractions are validated literals)
	}
	if energy <= 0 || delay <= 0 {
		panic(fmt.Sprintf("core: non-positive energy %v or delay %v", energy, delay)) //lint:allow panicfree (metric-domain validation; weights and fractions are validated literals)
	}
	return math.Pow(energy, 1-d) * math.Pow(delay, 2*(1+d))
}

// Point is one measured operating point of a crescendo: total energy
// and time-to-solution at a DVS setting.
type Point struct {
	Label  string  // operating point or strategy name, e.g. "800MHz"
	Freq   dvfs.Hz // 0 when the point is not a fixed frequency (cpuspeed)
	Energy float64 // joules
	Delay  float64 // seconds
}

// Crescendo is a sweep of operating points for one workload — the
// paper's energy-delay crescendo. Points are kept in sweep order
// (highest frequency first, by convention).
type Crescendo struct {
	Workload string
	Points   []Point
}

// Normalized returns the crescendo with energy and delay divided by the
// reference point's values (the paper normalizes to the highest, i.e.
// fastest, frequency operating point). ref is an index into Points.
func (c Crescendo) Normalized(ref int) Crescendo {
	base := c.Points[ref]
	out := Crescendo{Workload: c.Workload, Points: make([]Point, len(c.Points))}
	for i, p := range c.Points {
		out.Points[i] = Point{
			Label:  p.Label,
			Freq:   p.Freq,
			Energy: p.Energy / base.Energy,
			Delay:  p.Delay / base.Delay,
		}
	}
	return out
}

// Best applies Equation 6: it returns the index of the point minimizing
// the weighted ED2P under weight factor d. An exact tie goes to the
// lower energy, then the lower delay, then the earlier point, so no
// other point dominates the best one (at d = 1 the energy factor is 1,
// and points of equal delay tie whatever their energy).
func (c Crescendo) Best(d float64) int {
	best, bestVal := -1, math.Inf(1)
	for i, p := range c.Points {
		v := WeightedED2P(p.Energy, p.Delay, d)
		if v < bestVal || best >= 0 && v == bestVal && p.winsTie(c.Points[best]) { //lint:allow floateq (an exact tie is what the rule breaks)
			best, bestVal = i, v
		}
	}
	return best
}

// winsTie reports whether p beats q on an exact weighted-ED2P tie: the
// lower energy wins, then the lower delay.
func (p Point) winsTie(q Point) bool {
	return p.Energy < q.Energy || p.Energy == q.Energy && p.Delay < q.Delay //lint:allow floateq (equal energies fall through to the delay)
}

// Improvement reports how much more power-performance efficient point i
// is than point ref under weight d, as the paper quotes it ("16.9%
// higher efficiency than the maximum frequency"): 1 − W(i)/W(ref).
func (c Crescendo) Improvement(i, ref int, d float64) float64 {
	wi := WeightedED2P(c.Points[i].Energy, c.Points[i].Delay, d)
	wr := WeightedED2P(c.Points[ref].Energy, c.Points[ref].Delay, d)
	return 1 - wi/wr
}

// OperatingPoints summarizes a crescendo into the paper's Table 1/3
// form: the best point for the HPC, energy, and performance weights.
type OperatingPoints struct {
	HPC         Point
	Energy      Point
	Performance Point
}

// SelectOperatingPoints evaluates the three preset weights.
func (c Crescendo) SelectOperatingPoints() OperatingPoints {
	return OperatingPoints{
		HPC:         c.Points[c.Best(DeltaHPC)],
		Energy:      c.Points[c.Best(DeltaEnergy)],
		Performance: c.Points[c.Best(DeltaPerformance)],
	}
}

// RequiredEnergyFraction answers Figure 2's question: for weight factor
// d, if delay grows by factor x ≥ 1, to what fraction must energy fall
// for the slower point to tie the baseline under weighted ED2P?
// Solving E^(1-d)·x^(2(1+d)) = 1 gives E = x^(-2(1+d)/(1-d)).
// d = 1 (all weight on performance) admits no energy saving that
// compensates any slowdown: the function returns 0 for x > 1 and 1 for
// x = 1.
func RequiredEnergyFraction(d, x float64) float64 {
	if d < -1 || d > 1 {
		panic(fmt.Sprintf("core: weight factor %v outside [-1,1]", d)) //lint:allow panicfree (metric-domain validation; weights and fractions are validated literals)
	}
	if x < 1 {
		panic(fmt.Sprintf("core: delay factor %v below 1", x)) //lint:allow panicfree (metric-domain validation; weights and fractions are validated literals)
	}
	// d is validated into [-1,1] and x into [1,∞), so the closed-end
	// boundaries are reached with ordered comparisons rather than exact
	// float equality (the repolint floateq gate).
	if d >= 1 {
		if x <= 1 {
			return 1
		}
		return 0
	}
	return math.Pow(x, -2*(1+d)/(1-d))
}

// TradeoffCurve samples RequiredEnergyFraction for one weight line of
// Figure 2 over delay factors [1, xMax] in n steps.
func TradeoffCurve(d, xMax float64, n int) (xs, ys []float64) {
	if n < 2 {
		panic("core: need at least 2 samples") //lint:allow panicfree (metric-domain validation; weights and fractions are validated literals)
	}
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		x := 1 + (xMax-1)*float64(i)/float64(n-1)
		xs[i] = x
		ys[i] = RequiredEnergyFraction(d, x)
	}
	return xs, ys
}
