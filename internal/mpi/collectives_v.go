package mpi

// Variable-count and scan-family collectives, completing the MPI-1
// collective set the substrate offers (the paper's codes use the
// uniform forms; these exist for downstream workloads with irregular
// distributions, like the transpose's block remap).

import "repro/internal/sim"

// Gatherv collects a variable amount from every rank at root along a
// binomial tree (gatherV). sizes must be consistent on all ranks:
// sizes[i] is what rank i contributes. It returns, at root, the
// payloads indexed by rank; nil elsewhere.
func (r *Rank) Gatherv(p *sim.Proc, root int, sizes []int64, payload any) []any {
	if len(sizes) != r.Size() {
		panic("mpi: Gatherv sizes length mismatch") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
	return gatherV(r.worldView(p), root, func(pos int) int64 { return sizes[pos] }, payload)
}

// Scatterv distributes a variable amount from root to each rank along
// a binomial tree (scatterV) and returns this rank's payload: sizes[i]
// bytes reach rank i. sizes and payloads are only read at root, which
// ships each rank's size with its payload, so every forward down the
// tree carries its subtree's bytes.
func (r *Rank) Scatterv(p *sim.Proc, root int, sizes []int64, payloads []any) any {
	if r.id == root {
		if len(sizes) != r.Size() || len(payloads) != r.Size() {
			panic("mpi: Scatterv sizes/payloads length mismatch") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
		}
	}
	return scatterV(r.worldView(p), root, func(pos int) int64 { return sizes[pos] }, payloads)
}

// Scan computes the inclusive prefix reduction: rank i returns
// combine(payload_0, ..., payload_i). Linear chain: each rank receives
// the prefix from its predecessor, folds its own value, and forwards.
func (r *Rank) Scan(p *sim.Proc, size int64, payload any, combine func(a, b any) any) any {
	v := r.worldView(p)
	v.begin()
	n := v.size
	tag := v.tag(0)
	acc := payload
	if v.me > 0 {
		m := v.recv(v.me-1, tag)
		r.node.ComputeFlops(p, float64(size)*r.w.cfg.ReduceFlopsPerByte)
		if combine != nil {
			acc = combine(m.Payload, acc)
		}
	}
	if v.me < n-1 {
		v.send(v.me+1, tag, size, acc)
	}
	return acc
}

// ReduceScatter reduces size bytes across all ranks and scatters equal
// blocks of the result: MPICH-1 implements it as Reduce to rank 0
// followed by Scatter, and so does this substrate. blockPayloads, the
// per-rank result blocks, are produced by split at rank 0 from the
// reduced value (nil split scatters nils). It returns this rank's
// block.
func (r *Rank) ReduceScatter(p *sim.Proc, size int64, payload any,
	combine func(a, b any) any, split func(total any) []any) any {
	n := r.Size()
	total := r.Reduce(p, 0, size, payload, combine)
	var parts []any
	if r.id == 0 {
		if split != nil {
			parts = split(total)
			if len(parts) != n {
				panic("mpi: ReduceScatter split length mismatch") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
			}
		} else {
			parts = make([]any, n)
		}
	}
	return scatterV(r.worldView(p), 0, func(int) int64 { return size / int64(n) }, parts)
}
