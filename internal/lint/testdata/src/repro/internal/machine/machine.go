// Package machine is a fixture stub of the real per-rank node model:
// the shardown analyzer treats machine.Node as rank-owned by this
// import path, so fixtures exercise the builtin ownership rules the
// way production code does. Bodies are inert — only the signatures
// matter to the analyses.
package machine

import "repro/internal/sim"

// Node mirrors the per-rank machine node.
type Node struct{ eng *sim.Engine }

func NewNode(eng *sim.Engine) *Node { return &Node{eng: eng} }

func (n *Node) Engine() *sim.Engine       { return n.eng }
func (n *Node) NICBusy(from, to sim.Time) {}
