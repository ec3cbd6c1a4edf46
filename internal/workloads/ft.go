package workloads

import (
	"fmt"
)

// FT models the NAS Parallel Benchmarks FT kernel: a 3-D FFT solved by
// 1-D decomposition, where each iteration evolves the spectrum
// pointwise and performs a distributed transpose (all-to-all) inside
// the fft() function. Communication volume comes from the class's grid
// dimensions (16-byte complex doubles); compute is a calibrated
// memory-heavy mix (FFT sweeps are strided passes over the local slab).
//
// The fft() function — the transpose plus the FFT sweeps — is marked as
// a PowerPack region named "fft", matching where the paper inserts its
// dynamic DVS control calls.
type FT struct {
	// Class is the NPB problem class: 'A', 'B', or 'C'.
	Class byte
	// Procs is the number of ranks.
	Procs int
	// IterOverride, if positive, replaces the class's standard
	// iteration count (tests use small values).
	IterOverride int
}

// RegionFFT is the PowerPack region name wrapping the fft() function.
const RegionFFT = "fft"

// NewFT returns the class running on procs ranks.
func NewFT(class byte, procs int) *FT {
	switch class {
	case 'A', 'B', 'C':
	default:
		panic(fmt.Sprintf("workloads: unknown FT class %q", string(class))) //lint:allow panicfree (workload constructor config validation; callers pass literals)
	}
	if procs < 1 {
		panic("workloads: FT needs at least 1 rank") //lint:allow panicfree (workload constructor config validation; callers pass literals)
	}
	return &FT{Class: class, Procs: procs}
}

// classDims returns the grid size and standard iteration count.
func (f *FT) classDims() (points int64, iters int) {
	switch f.Class {
	case 'A':
		return 256 * 256 * 128, 6
	case 'B':
		return 512 * 256 * 256, 20
	case 'C':
		return 512 * 512 * 512, 20
	default:
		panic("workloads: bad FT class") //lint:allow panicfree (workload constructor config validation; callers pass literals)
	}
}

// Name implements Workload.
func (f *FT) Name() string { return fmt.Sprintf("ft.%c", f.Class) }

// Ranks implements Workload.
func (f *FT) Ranks() int { return f.Procs }

// Run implements Workload. It is the body of every FT rank, about a
// quarter of the paper-figure profile's CPU, so its per-iteration
// loop must not allocate.
//
//lint:hotpath
func (f *FT) Run(ctx Ctx) {
	points, iters := f.classDims()
	if f.IterOverride > 0 {
		iters = f.IterOverride
	}
	p := int64(f.Procs)
	local := points / p // points per rank
	perPeer := points * 16 / (p * p)

	// Per-point costs of the FFT sweeps (strided passes over the local
	// slab: ~2 DRAM round trips and ~80 core cycles per point) and of
	// the evolve step (~0.5 accesses, ~10 cycles per point).
	const (
		fftAccessesPerPoint = 2.2
		fftCyclesPerPoint   = 40.0
		evAccessesPerPoint  = 0.5
		evCyclesPerPoint    = 4.0
		slices              = 8 // DVS granularity within a phase
	)

	for it := 0; it < iters; it++ {
		// evolve: outside the instrumented region, runs at the base
		// operating point under dynamic control.
		for s := 0; s < slices; s++ {
			ctx.Node.MemoryRounds(ctx.P, int64(float64(local)*evAccessesPerPoint)/slices)
			ctx.Node.Compute(ctx.P, float64(local)*evCyclesPerPoint/slices)
		}

		// fft(): FFT sweeps plus the distributed transpose. This is
		// where the slack lives; the paper scales it down.
		ctx.PP.EnterRegion(ctx.P, RegionFFT)
		for s := 0; s < slices; s++ {
			ctx.Node.MemoryRounds(ctx.P, int64(float64(local)*fftAccessesPerPoint)/slices)
			ctx.Node.Compute(ctx.P, float64(local)*fftCyclesPerPoint/slices)
		}
		if f.Procs > 1 {
			ctx.Rank.Alltoall(ctx.P, perPeer)
		}
		ctx.PP.ExitRegion(ctx.P, RegionFFT)

		// checksum: a tiny allreduce closing the iteration.
		if f.Procs > 1 {
			ctx.Rank.Allreduce(ctx.P, 16, nil, nil)
		}
	}
}
