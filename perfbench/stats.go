package main

import "sort"

// summary is a sample's median and quartiles with its size.
type summary struct {
	median, q1, q3 float64
	n              int
}

func summarize(xs []float64) summary {
	return summary{median: quantile(xs, 0.5), q1: quantile(xs, 0.25), q3: quantile(xs, 0.75), n: len(xs)}
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
