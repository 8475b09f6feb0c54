package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of the samples by
// linear interpolation between the closest ranks.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	ds := append([]time.Duration(nil), samples...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pos := q * float64(len(ds)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return ds[lo] + time.Duration(frac*float64(ds[hi]-ds[lo]))
}

// tailQuantile is the highest percentile, capped at p99, that has at
// least ten samples beyond it: p99 from 1,000 samples up, lower for
// workloads whose operations are few and long (a drain, a simulation
// call), and never below the median.
func tailQuantile(samples int) float64 {
	if samples <= 0 {
		return 0.5
	}
	return math.Max(0.5, math.Min(0.99, 1-10/float64(samples)))
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) with its
// default "exclusive" method, so the spread -repeat prints is the one a
// reader computing it from the per-run JSON lines would get.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median is the middle value (mean of the two middle ones for an even
// count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	mid := len(data) / 2
	if len(data)%2 == 1 {
		return data[mid]
	}
	return (data[mid-1] + data[mid]) / 2
}

func medianDuration(ds []time.Duration) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(median(fs))
}
