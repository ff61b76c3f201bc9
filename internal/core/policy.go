package core

import (
	"fmt"

	"dynbw/internal/bw"
	"dynbw/internal/sim"
)

// NewPolicy builds a multi-session allocator over k slots by its CLI
// name (phased|continuous|combined). Phased and continuous take the
// offline resources (B_O, D_O) directly; combined derives
// B_A = NextPow2(8·B_O), U_O = 0.5 and W = 2·D_O from them.
func NewPolicy(name string, k int, bo bw.Rate, do bw.Tick) (sim.MultiAllocator, error) {
	switch name {
	case "phased":
		return NewPhased(MultiParams{K: k, BO: bo, DO: do})
	case "continuous":
		return NewContinuous(MultiParams{K: k, BO: bo, DO: do})
	case "combined":
		ba := bw.NextPow2(8 * bo)
		return NewCombined(CombinedParams{K: k, BA: ba, DO: do, UO: 0.5, W: 2 * do})
	default:
		return nil, fmt.Errorf("core: unknown policy %q (want phased|continuous|combined)", name)
	}
}
