package main

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs: for p99 of 1000
// samples, the 990th smallest, so ten samples lie beyond it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// closer is a set-up environment that can be torn down.
type closer interface{ close() error }

// setupMedian runs setup reps times, keeps the last environment, closes
// the others, and returns the median set-up time in seconds.
func setupMedian[E closer](reps int, setup func() (E, error)) (E, float64, error) {
	var env E
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			if err := env.close(); err != nil {
				return env, 0, err
			}
		}
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		env = e
	}
	runtime.GC()
	return env, median(secs), nil
}

// deciles formats the 10th..90th percentiles of xs.
func deciles(xs []float64) string {
	parts := make([]string, 0, 9)
	for q := 1; q <= 9; q++ {
		parts = append(parts, strconv.FormatFloat(quantile(xs, float64(q)/10), 'f', 2, 64))
	}
	return strings.Join(parts, " ")
}
