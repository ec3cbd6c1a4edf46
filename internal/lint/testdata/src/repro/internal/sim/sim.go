// Package sim is a fixture stub of the real sharded event core: the
// typestate and shardown analyzers match the sim.Group / sim.Engine
// APIs by this import path, so fixtures import it exactly as
// production code does. Bodies are inert — only the signatures matter
// to the analyses. (The fixture/ and statefixture/ subdirectories are
// separate packages exercising other analyzers.)
package sim

// Time and Duration mirror the real simulated-clock types.
type Time int64

type Duration int64

// Add mirrors sim.Time.Add.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Proc mirrors the coroutine handle passed to spawned processes.
type Proc struct{ now Time }

func (p *Proc) Now() Time { return p.now }

// Engine mirrors the per-shard event loop.
type Engine struct{ now Time }

func (e *Engine) Now() Time                                                 { return e.now }
func (e *Engine) Schedule(t Time, fn func())                                {}
func (e *Engine) PostArrival(t Time, srcPort int, srcSeq uint64, fn func()) {}
func (e *Engine) After(d Duration, fn func())                               {}
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc                 { return &Proc{} }
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc       { return &Proc{} }
func (e *Engine) Run(limit Time) (Time, error)                              { return limit, nil }
func (e *Engine) NewTimer(fn func()) *Timer                                 { return &Timer{} }

// Timer mirrors the engine's re-armable timer.
type Timer struct{}

func (tm *Timer) Reset(t Time) {}

// Group mirrors the sharded engine group.
type Group struct {
	engines []*Engine
	look    Duration
}

func NewGroup(shards int, look Duration) *Group {
	g := &Group{look: look}
	for i := 0; i < shards; i++ {
		g.engines = append(g.engines, &Engine{})
	}
	return g
}

func (g *Group) Size() int                                              { return len(g.engines) }
func (g *Group) Engine(i int) *Engine                                   { return g.engines[i] }
func (g *Group) Lookahead() Duration                                    { return g.look }
func (g *Group) Now() Time                                              { return 0 }
func (g *Group) Post(shard int, t Time, src int, seq uint64, fn func()) {}
func (g *Group) ScheduleGlobal(t Time, pri uint64, fn func())           {}
func (g *Group) Run(limit Time) (Time, error)                           { return limit, nil }
func (g *Group) Close()                                                 {}
