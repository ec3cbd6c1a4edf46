// Package typestate_fixture seeds one violation of each built-in
// protocol spec — Tick after End (the acceptance case), Tick before
// Begin, double Begin, a Writer abandoned on an error exit or beside a
// naked return, a double Replay, Spawn after Close, Post after Close, a
// Group that never reaches Close, and exec.Map results read before the
// error check — next to the clean shapes (defer-discharged
// obligations, err-guarded constructors, sinks handed off to a
// Recorder, a writer returned through a named result) that must stay
// quiet.
package typestate_fixture

import (
	"io"

	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TickAfterEnd is the acceptance case: a sink driven past End.
func TickAfterEnd(row []trace.Sample) {
	s := trace.NewStats()
	_ = s.Begin(trace.Meta{})
	_ = s.Tick(0, row)
	_ = s.End()
	_ = s.Tick(1, row) // want `trace\.Sink\.Tick called in state "ended"`
}

// TickBeforeBegin drives a sink that was never begun.
func TickBeforeBegin(row []trace.Sample) {
	s := trace.NewStats()
	_ = s.Tick(0, row) // want `trace\.Sink\.Tick called in state "fresh"`
	_ = s.End()
}

// DoubleBegin begins twice.
func DoubleBegin() {
	d := trace.NewDownsampler(0, 128)
	_ = d.Begin(trace.Meta{})
	_ = d.Begin(trace.Meta{}) // want `trace\.Sink\.Begin called in state "active"`
	_ = d.End()
}

// MaybeEnded joins an ended branch with an active one: the following
// Tick can observe "ended".
func MaybeEnded(row []trace.Sample, early bool) {
	s := trace.NewStats()
	_ = s.Begin(trace.Meta{})
	if early {
		_ = s.End()
	}
	_ = s.Tick(0, row) // want `trace\.Sink\.Tick called in state "ended"`
	_ = s.End()
}

// WriterAbandonedOnError loses a begun archive on the error exit: the
// return leaves the writer active, so the header is never flushed.
func WriterAbandonedOnError(out io.Writer, row []trace.Sample) error {
	w := trace.NewWriter(out)
	if err := w.Begin(trace.Meta{}); err != nil {
		return err
	}
	if err := w.Tick(0, row); err != nil {
		return err // want `trace\.Writer value does not reach End`
	}
	return w.End()
}

// WriterDeferredEnd is the clean version: defer discharges the
// obligation on every exit, including the same error return.
func WriterDeferredEnd(out io.Writer, row []trace.Sample) error {
	w := trace.NewWriter(out)
	defer func() { _ = w.End() }()
	if err := w.Begin(trace.Meta{}); err != nil {
		return err
	}
	if err := w.Tick(0, row); err != nil {
		return err
	}
	return nil
}

// WriterOpened hands its begun writer to the caller through a named
// result and a naked return: the caller owes the End.
func WriterOpened(out io.Writer, m trace.Meta) (w *trace.Writer, err error) {
	w = trace.NewWriter(out)
	err = w.Begin(m)
	return
}

// WriterOpenedLeaksSpare returns its named writer the same way but
// drops a second, begun one.
func WriterOpenedLeaksSpare(out, spare io.Writer, m trace.Meta) (w *trace.Writer, err error) {
	w = trace.NewWriter(out)
	tmp := trace.NewWriter(spare)
	_ = tmp.Begin(m)
	err = w.Begin(m)
	return // want `trace\.Writer value does not reach End`
}

// FileWriterNeverEnded leaks the file sink entirely.
func FileWriterNeverEnded(path string, row []trace.Sample) {
	fs := trace.NewFileWriter(path)
	_ = fs.Begin(trace.Meta{})
	_ = fs.Tick(0, row)
} // want `trace\.Writer value does not reach End`

// WriterHandedOff passes the sink to Replay: protocol responsibility
// transfers with it, so nothing is owed here.
func WriterHandedOff(path string, in io.Reader) error {
	fs := trace.NewFileWriter(path)
	r, err := trace.NewReader(in)
	if err != nil {
		return err
	}
	return r.Replay(fs)
}

// DoubleReplay re-reads a one-shot stream.
func DoubleReplay(in io.Reader) error {
	r, err := trace.NewReader(in)
	if err != nil {
		return err
	}
	if err := r.Replay(trace.NewStats()); err != nil {
		return err
	}
	return r.Replay(trace.NewStats()) // want `trace\.Reader\.Replay called in state "drained"`
}

// SpawnAfterClose drives a recorder past Close.
func SpawnAfterClose(g *sim.Group) {
	rec := trace.MustNew(trace.Config{})
	_ = rec.Close()
	rec.Spawn(g, func() bool { return true }) // want `trace\.Recorder\.Spawn called in state "closed"`
}

// RecorderNeverClosed owes a Close on the fall-off exit.
func RecorderNeverClosed(g *sim.Group, done func() bool) {
	rec := trace.MustNew(trace.Config{})
	rec.Spawn(g, done)
} // want `trace\.Recorder value does not reach Close`

// RecorderErrGuarded is the canonical clean shape: the err != nil
// branch owes nothing (rec is nil there), defer covers the rest.
func RecorderErrGuarded(g *sim.Group, done func() bool) error {
	rec, err := trace.New(trace.Config{})
	if err != nil {
		return err
	}
	defer func() { _ = rec.Close() }()
	rec.Spawn(g, done)
	return nil
}

// PostAfterClose schedules onto a closed group.
func PostAfterClose() {
	g := sim.NewGroup(2, 10)
	g.Close()
	g.Post(0, 5, 0, 0, func() {}) // want `sim\.Group\.Post called in state "closed"`
}

// RunAfterClose runs a closed group.
func RunAfterClose() {
	g := sim.NewGroup(2, 10)
	g.Close()
	_, _ = g.Run(100) // want `sim\.Group\.Run called in state "closed"`
}

// GroupNeverClosed abandons the group's engines.
func GroupNeverClosed() {
	g := sim.NewGroup(2, 10)
	_, _ = g.Run(100)
} // want `sim\.Group value does not reach Close`

// GroupHeldThroughCalls proves passing a group around does not hand
// off the Close obligation (EscapeOnPass=false): the recorder is
// closed, the group is not.
func GroupHeldThroughCalls(done func() bool) {
	g := sim.NewGroup(2, 10)
	rec := trace.MustNew(trace.Config{})
	rec.Spawn(g, done)
	_ = rec.Close()
} // want `sim\.Group value does not reach Close`

// GroupLifecycleClean is the canonical coordinator shape.
func GroupLifecycleClean() error {
	g := sim.NewGroup(4, 10)
	defer g.Close()
	g.ScheduleGlobal(5, 1, func() {})
	if _, err := g.Run(100); err != nil {
		return err
	}
	return nil
}

// EndedInClosure shows closures driving the shared machine: the End
// inside the literal is observed, so the later Tick is flagged.
func EndedInClosure(row []trace.Sample) {
	s := trace.NewStats()
	_ = s.Begin(trace.Meta{})
	finish := func() { _ = s.End() }
	finish()
	_ = s.Tick(0, row) // want `trace\.Sink\.Tick called in state "ended"`
}

// endSink is a same-package helper: summaries see the End inside it.
func endSink(s *trace.Stats) { _ = s.End() }

// EndedViaHelper transitions through an interprocedural summary.
func EndedViaHelper(row []trace.Sample) {
	s := trace.NewStats()
	_ = s.Begin(trace.Meta{})
	endSink(s)
	_ = s.Tick(0, row) // want `trace\.Sink\.Tick called in state "ended"`
}

// Suppressed shows the escape hatch; the analyzer must stay silent.
func Suppressed(row []trace.Sample) {
	s := trace.NewStats()
	_ = s.Begin(trace.Meta{})
	_ = s.End()
	_ = s.Tick(0, row) //lint:allow typestate (demonstrating the suppression grammar)
}

func work(i int) (int, error) { return i, nil }

// MapUseBeforeCheck reads a result slot before consulting the error.
func MapUseBeforeCheck() int {
	res, err := exec.Map(2, 4, work)
	total := res[0] // want `exec\.Map results used before the error is checked`
	if err != nil {
		return 0
	}
	return total
}

// MapErrDiscarded throws the error away entirely.
func MapErrDiscarded() int {
	res, _ := exec.Map(2, 4, work)
	return len(res) // want `exec\.Map results used with the error result discarded`
}

// MapClean is the sanctioned order: error first, slots second.
func MapClean() (int, error) {
	res, err := exec.Map(2, 4, work)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, v := range res {
		total += v
	}
	return total, nil
}
