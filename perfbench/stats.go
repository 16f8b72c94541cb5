package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a p99 drawn from fewer than 1000 samples would rest on a
// handful of outliers, so the helper refuses it instead.
const minBeyond = 10

// quantile is one reported percentile of a latency distribution.
type quantile struct {
	Value  float64 // in the distribution's unit
	N      int     // samples in the distribution
	Beyond int     // samples strictly above the reported rank
}

// percentile returns the nearest-rank q-quantile of samples (sorted in
// place) scaled by scale, and fails unless at least minBeyond samples lie
// beyond it.
func percentile(samples []int64, q, scale float64) (quantile, error) {
	n := len(samples)
	if n == 0 {
		return quantile{}, fmt.Errorf("p%g of an empty distribution", q*100)
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q * float64(n)))
	rank = max(rank, 1)
	beyond := n - rank
	if beyond < minBeyond {
		return quantile{}, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d", q*100, minBeyond, n, beyond)
	}
	return quantile{Value: float64(samples[rank-1]) * scale, N: n, Beyond: beyond}, nil
}

// blockQuantile is a percentile taken per block of rounds, as reported.
type blockQuantile struct {
	Value           float64 // median over blocks
	Blocks          int
	MinN, MinBeyond int // smallest block and its fewest samples beyond
}

// blockPercentile groups consecutive rounds into blocks that each hold
// enough samples for q to leave minBeyond samples beyond it, takes the
// q-quantile of every block, and returns the median over blocks. A short
// stall of the host then moves one block's figure, not the run's, which
// a percentile over the pooled samples would let it do. A trailing
// partial block joins the one before it.
func blockPercentile(rounds [][]int64, q, scale float64) (blockQuantile, error) {
	need := 1
	for need-int(math.Ceil(q*float64(need))) < minBeyond {
		need++
	}
	var blocks [][]int64
	var cur []int64
	for _, r := range rounds {
		cur = append(cur, r...)
		if len(cur) >= need {
			blocks = append(blocks, cur)
			cur = nil
		}
	}
	if len(blocks) == 0 {
		return blockQuantile{}, fmt.Errorf("p%g needs %d samples, the run has %d", q*100, need, len(cur))
	}
	blocks[len(blocks)-1] = append(blocks[len(blocks)-1], cur...)
	out := blockQuantile{Blocks: len(blocks)}
	vals := make([]float64, len(blocks))
	for i, b := range blocks {
		v, err := percentile(b, q, scale)
		if err != nil {
			return blockQuantile{}, err
		}
		vals[i] = v.Value
		if i == 0 || v.N < out.MinN {
			out.MinN = v.N
		}
		if i == 0 || v.Beyond < out.MinBeyond {
			out.MinBeyond = v.Beyond
		}
	}
	out.Value = median(vals)
	return out, nil
}

// median returns the median of xs (sorted in place); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// interval is a closed-open span [Start, End) in tracer nanoseconds.
type interval struct{ Start, End int64 }

// selfTime returns the part of parent not covered by any child interval:
// the parent's duration minus the union of its children clipped to it.
// children is reordered.
func selfTime(parent interval, children []interval) int64 {
	slices.SortFunc(children, func(a, b interval) int { return cmp.Compare(a.Start, b.Start) })
	covered := int64(0)
	cur := parent.Start // everything before cur is accounted for
	for _, c := range children {
		s, e := max(c.Start, cur), min(c.End, parent.End)
		if e > s {
			covered += e - s
			cur = e
		}
	}
	return parent.End - parent.Start - covered
}
