package dlt

import (
	"fmt"
	"math"
)

// Allocation is the solution of the LINEAR BOUNDARY-LINEAR problem for a
// particular network (or bid vector).
//
// Alpha[i] is α_i, the fraction of the total load processor P_i computes;
// the fractions sum to one. AlphaHat[i] is α̂_i, the fraction of the load
// *received* by P_i that it keeps (α̂_m = 1). D[i] is D_i, the fraction of
// the total load that reaches P_i (D_0 = 1). WBar[i] is w̄_i, the equivalent
// processing time of the sub-chain P_i..P_m after reduction; w̄_0 equals the
// optimal makespan for a unit load.
type Allocation struct {
	Alpha    []float64
	AlphaHat []float64
	D        []float64
	WBar     []float64
}

// Makespan returns the optimal total execution time for a unit load, w̄_0.
func (a *Allocation) Makespan() float64 { return a.WBar[0] }

// Clone returns a deep copy.
func (a *Allocation) Clone() *Allocation {
	return &Allocation{
		Alpha:    append([]float64(nil), a.Alpha...),
		AlphaHat: append([]float64(nil), a.AlphaHat...),
		D:        append([]float64(nil), a.D...),
		WBar:     append([]float64(nil), a.WBar...),
	}
}

// EquivTwo collapses the two-processor segment of Figure 3: a predecessor
// with per-unit time wPred feeding, over a link with per-unit time z, an
// (equivalent) successor with per-unit time wSucc. It returns the
// equal-finish local fraction α̂ from equation (2.7),
//
//	α̂·wPred = (1-α̂)(z + wSucc)  =>  α̂ = (wSucc+z) / (wPred+wSucc+z),
//
// and the resulting equivalent per-unit time w̄ = α̂·wPred (equation (2.4)).
func EquivTwo(wPred, z, wSucc float64) (alphaHat, wEq float64) {
	alphaHat = (wSucc + z) / (wPred + wSucc + z)
	return alphaHat, alphaHat * wPred
}

// RealizedEquivTwo returns the equivalent per-unit time of the same
// two-processor segment when the split α̂ was fixed in advance (from bids)
// but the successor side actually performs at wSuccActual. Because the two
// sides no longer necessarily finish together, the equivalent time is the
// max of the two finish times (equation (2.3)):
//
//	w̄ = max( α̂·wPred , (1-α̂)·(z + wSuccActual) ).
//
// The mechanism's bonus (4.9) is defined through this quantity.
func RealizedEquivTwo(alphaHat, wPred, z, wSuccActual float64) float64 {
	return math.Max(alphaHat*wPred, (1-alphaHat)*(z+wSuccActual))
}

// SolveBoundary runs Algorithm 1 (LINEAR BOUNDARY-LINEAR) on the network:
// the backward reduction sweep computing α̂ and w̄, followed by the forward
// sweep converting local fractions into global ones. The returned allocation
// is the optimal solution of min_α max_i T_i(α) (Theorem 2.1: every
// processor participates and all finish simultaneously).
func SolveBoundary(n *Network) (*Allocation, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	a := &Allocation{}
	SolveBoundaryInto(n, a)
	return a, nil
}

// SolveBoundaryInto runs Algorithm 1 writing into a caller-owned allocation,
// reusing its slices whenever they have capacity. In steady state (same or
// shrinking network size) it performs zero heap allocations, which is what
// the mechanism-evaluation hot paths and the experiment engine run on.
//
// The caller must pass a structurally valid network: this is the
// pre-validated fast path and it does not re-run Validate. SolveBoundary
// (validate + fresh allocation) is the safe general-purpose entry point.
func SolveBoundaryInto(n *Network, a *Allocation) {
	m := n.M()
	a.Alpha = growFloats(a.Alpha, m+1)
	a.AlphaHat = growFloats(a.AlphaHat, m+1)
	a.D = growFloats(a.D, m+1)
	a.WBar = growFloats(a.WBar, m+1)

	// Backward sweep (steps 1-6): collapse the two farthest processors at a
	// time. After iteration i, WBar[i] is the equivalent processing time of
	// the sub-chain P_i..P_m.
	a.AlphaHat[m] = 1
	a.WBar[m] = n.W[m]
	for i := m - 1; i >= 0; i-- {
		a.AlphaHat[i], a.WBar[i] = EquivTwo(n.W[i], n.Z[i+1], a.WBar[i+1])
	}

	// Forward sweep (steps 7-10): D_0 = 1, α_i = D_i·α̂_i, D_{i+1} = D_i(1-α̂_i).
	d := 1.0
	for i := 0; i <= m; i++ {
		a.D[i] = d
		a.Alpha[i] = d * a.AlphaHat[i]
		d *= 1 - a.AlphaHat[i]
	}
}

// BoundaryMakespan returns the optimal makespan w̄_0 for a unit load in O(1)
// memory: the backward sweep needs only the running equivalent bid when the
// per-processor fractions are not wanted. Pre-validated fast path.
func BoundaryMakespan(n *Network) float64 {
	m := n.M()
	wbar := n.W[m]
	for i := m - 1; i >= 0; i-- {
		_, wbar = EquivTwo(n.W[i], n.Z[i+1], wbar)
	}
	return wbar
}

// growFloats returns s resized to length n, reusing its backing array when
// the capacity allows and allocating only on growth.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// MustSolveBoundary is SolveBoundary for callers that already validated the
// network; it panics on error.
func MustSolveBoundary(n *Network) *Allocation {
	a, err := SolveBoundary(n)
	if err != nil {
		panic(err)
	}
	return a
}

// AlphaFromHat converts local load fractions α̂ into global fractions α via
// equations (2.5)-(2.6): α_0 = α̂_0, α_j = (Π_{k<j}(1-α̂_k))·α̂_j.
func AlphaFromHat(hat []float64) []float64 {
	alpha := make([]float64, len(hat))
	d := 1.0
	for i, h := range hat {
		alpha[i] = d * h
		d *= 1 - h
	}
	return alpha
}

// HatFromAlpha converts global fractions α into local fractions α̂, the
// inverse of AlphaFromHat: α̂_i = α_i / D_i with D_i = 1 - Σ_{k<i} α_k.
// Positions that receive no load (D_i = 0) get α̂_i = 0, except the last,
// which keeps the conventional α̂_m = 1 when it receives load.
func HatFromAlpha(alpha []float64) []float64 {
	hat := make([]float64, len(alpha))
	d := 1.0
	for i, ai := range alpha {
		if d <= 0 {
			hat[i] = 0
			continue
		}
		hat[i] = ai / d
		// The residual subtraction can leave the final ratio a few ulps
		// outside [0,1]; fractions are by definition within it.
		if hat[i] > 1 {
			hat[i] = 1
		} else if hat[i] < 0 {
			hat[i] = 0
		}
		d -= ai
	}
	return hat
}

// ReceivedLoads returns D_i = 1 - Σ_{k<i} α_k, the fraction of the total
// load that crosses link l_i into P_i (D_0 = 1).
func ReceivedLoads(alpha []float64) []float64 {
	d := make([]float64, len(alpha))
	remaining := 1.0
	for i, ai := range alpha {
		d[i] = remaining
		remaining -= ai
	}
	return d
}

// ValidateAllocation checks that alpha is a feasible allocation for n:
// right length, all fractions within [0,1] (within tol), and summing to 1
// (within tol).
func ValidateAllocation(n *Network, alpha []float64, tol float64) error {
	if len(alpha) != n.Size() {
		return fmt.Errorf("%w: got %d, want %d", ErrAllocLen, len(alpha), n.Size())
	}
	var sum float64
	for i, ai := range alpha {
		if math.IsNaN(ai) || ai < -tol || ai > 1+tol {
			return fmt.Errorf("%w: alpha[%d]=%v", ErrAllocRange, i, ai)
		}
		sum += ai
	}
	if math.Abs(sum-1) > tol {
		return fmt.Errorf("%w: sum=%v", ErrAllocSum, sum)
	}
	return nil
}
