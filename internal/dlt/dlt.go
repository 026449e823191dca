// Package dlt implements the Divisible Load Theory substrate used by the
// DLS-LBL mechanism (Carroll & Grosu, IPPS 2007).
//
// The primary model is the one the paper schedules on: m+1 processors
// P_0..P_m connected in a linear (chain) network, load originating at the
// boundary processor P_0. Processor P_i needs W[i] time units to process a
// unit of load; link l_i from P_{i-1} to P_i needs Z[i] time units to carry a
// unit of load. Processors have communication front-ends (they compute while
// forwarding), a sender talks to one recipient at a time (one-port model),
// and a processor starts computing only once its whole assignment has
// arrived. Result-return time is ignored. These are assumptions (i)-(iii) of
// Sect. 2 of the paper.
//
// Beyond the linear-boundary solver (Algorithm 1 of the paper) the package
// provides the finish-time formulas (2.1)-(2.2), the two-processor reduction
// (2.3)-(2.7), naive baseline allocators, and an exact (big.Rat) solver that
// serves as the float solver's differential oracle.
package dlt

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// Errors returned by model validation.
var (
	ErrEmpty        = errors.New("dlt: network needs at least one processor")
	ErrLengths      = errors.New("dlt: W and Z must have equal length")
	ErrNonPositiveW = errors.New("dlt: processing times must be positive and finite")
	ErrNegativeZ    = errors.New("dlt: link times must be non-negative and finite")
	ErrZ0           = errors.New("dlt: Z[0] must be zero (P0 has no inbound link)")
	ErrAllocLen     = errors.New("dlt: allocation length does not match network")
	ErrAllocRange   = errors.New("dlt: allocation fractions must be in [0,1]")
	ErrAllocSum     = errors.New("dlt: allocation must sum to 1")
)

// Network is a linear network with boundary load origination.
//
// W[i] (i = 0..m) is w_i, the time P_i needs per unit load.
// Z[i] (i = 1..m) is z_i, the time link l_i = (P_{i-1}, P_i) needs per unit
// load. Z[0] is unused and must be zero.
type Network struct {
	W []float64 `json:"w"`
	Z []float64 `json:"z"`
}

// NewNetwork builds a network from per-processor times w and per-link times
// z, where len(z) == len(w)-1 (z[j] is the link into processor j+1). It
// validates the result.
func NewNetwork(w, z []float64) (*Network, error) {
	if len(w) == 0 {
		return nil, ErrEmpty
	}
	if len(z) != len(w)-1 {
		return nil, fmt.Errorf("%w: got %d processors and %d links", ErrLengths, len(w), len(z))
	}
	n := &Network{
		W: append([]float64(nil), w...),
		Z: append([]float64{0}, z...),
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// M returns m: the index of the last processor (the network has m+1
// processors).
func (n *Network) M() int { return len(n.W) - 1 }

// Size returns the number of processors, m+1.
func (n *Network) Size() int { return len(n.W) }

// Validate checks the structural invariants of the model.
func (n *Network) Validate() error {
	if len(n.W) == 0 {
		return ErrEmpty
	}
	if len(n.Z) != len(n.W) {
		return fmt.Errorf("%w: |W|=%d |Z|=%d", ErrLengths, len(n.W), len(n.Z))
	}
	if n.Z[0] != 0 {
		return ErrZ0
	}
	for i, w := range n.W {
		if !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: W[%d]=%v", ErrNonPositiveW, i, w)
		}
	}
	for i := 1; i < len(n.Z); i++ {
		if n.Z[i] < 0 || math.IsNaN(n.Z[i]) || math.IsInf(n.Z[i], 0) {
			return fmt.Errorf("%w: Z[%d]=%v", ErrNegativeZ, i, n.Z[i])
		}
	}
	return nil
}

// Clone returns a deep copy.
func (n *Network) Clone() *Network {
	return &Network{
		W: append([]float64(nil), n.W...),
		Z: append([]float64(nil), n.Z...),
	}
}

// Suffix returns the sub-chain starting at processor i, viewed as a
// boundary-origination network rooted at P_i. The inbound link Z[i] is
// dropped (the suffix root has no inbound link).
func (n *Network) Suffix(i int) *Network {
	if i < 0 || i > n.M() {
		panic(fmt.Sprintf("dlt: Suffix(%d) out of range [0,%d]", i, n.M()))
	}
	s := &Network{
		W: append([]float64(nil), n.W[i:]...),
		Z: append([]float64(nil), n.Z[i:]...),
	}
	s.Z[0] = 0
	return s
}

// Without returns the chain with processor k removed, splicing its neighbors
// together: load bound for the survivors after P_k now crosses both the link
// into P_k and the link out of it, so the per-unit times add
// (z'_{k+1} = z_k + z_{k+1}). Removing the last processor just truncates.
// The failure-recovery runner uses this to re-run LINEAR BOUNDARY-LINEAR on
// the surviving chain after a processor is declared dead. The root (k = 0)
// cannot be removed — the load originates there.
func (n *Network) Without(k int) (*Network, error) {
	m := n.M()
	if k <= 0 || k > m {
		return nil, fmt.Errorf("dlt: cannot remove processor %d from chain of %d (root is irremovable)", k, n.Size())
	}
	c := &Network{
		W: append(append([]float64(nil), n.W[:k]...), n.W[k+1:]...),
		Z: append(append([]float64(nil), n.Z[:k]...), n.Z[k+1:]...),
	}
	if k < m {
		// c.Z[k] now describes the link into the old P_{k+1}; traffic to it
		// still traverses the physical link that fed P_k.
		c.Z[k] += n.Z[k]
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// WithBid returns a copy of n in which processor i declares processing time
// w instead of W[i]. The mechanism uses this to evaluate counterfactual bid
// vectors.
func (n *Network) WithBid(i int, w float64) *Network {
	c := n.Clone()
	c.W[i] = w
	return c
}

// String gives a compact human-readable rendering.
func (n *Network) String() string {
	return fmt.Sprintf("chain{m+1=%d, w=%v, z=%v}", n.Size(), n.W, n.Z[1:])
}

// MarshalJSON encodes the network as {"w": [...], "z": [...]} where z has
// one entry per link (length m), matching the cmd/dlslbl input format.
func (n *Network) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		W []float64 `json:"w"`
		Z []float64 `json:"z"`
	}{n.W, n.Z[1:]})
}

// UnmarshalJSON decodes the cmd/dlslbl spec format and validates it.
func (n *Network) UnmarshalJSON(data []byte) error {
	var spec struct {
		W []float64 `json:"w"`
		Z []float64 `json:"z"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return err
	}
	built, err := NewNetwork(spec.W, spec.Z)
	if err != nil {
		return err
	}
	*n = *built
	return nil
}
