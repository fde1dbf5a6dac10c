package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads this program reports match the ones an outside checker computes.
// With fewer than two values both quartiles equal the only value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// relIQR is the distance between the quartiles as a share of the median.
func relIQR(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// percentile is the nearest-rank q-quantile of xs (0 < q ≤ 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tail names the highest of p90/p99/p999 that has at least ten samples
// beyond it, the tail a sample of n values can support; ok is false when
// even p90 has fewer than ten.
func tail(n int) (name string, q float64, ok bool) {
	for _, c := range []struct {
		name string
		q    float64
	}{{"p999", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(n)*(1-c.q) >= 10 {
			return c.name, c.q, true
		}
	}
	return "", 0, false
}

// describe renders a sample as "median m [q1 q3] pXX t n=k" in the given unit.
func describe(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "n=0"
	}
	q1, q3 := quartiles(xs)
	s := fmt.Sprintf("median %s [%s %s]", fmtNum(median(xs)), fmtNum(q1), fmtNum(q3))
	if name, q, ok := tail(len(xs)); ok {
		s += fmt.Sprintf(" %s %s", name, fmtNum(percentile(xs, q)))
	}
	return fmt.Sprintf("%s %s n=%d", s, unit, len(xs))
}

func fmtNum(v float64) string {
	switch a := math.Abs(v); {
	case a == 0 || math.IsNaN(v) || math.IsInf(v, 0):
		return fmt.Sprint(v)
	case a >= 1e5:
		return fmt.Sprintf("%.0f", v)
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
