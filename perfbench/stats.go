package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it does not modify. Empty input gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailSupported reports whether n samples leave at least ten beyond the
// p-th percentile, the least a tail figure needs to mean anything.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p/100) >= 10-1e-9
}

// tailPct is the highest percentile, at most 99 and at least 50, that
// leaves ten of n samples beyond it: the tail a step of n samples can
// be judged on.
func tailPct(n int) float64 {
	if n <= 20 {
		return 50
	}
	return min(99, 100*(1-10/float64(n)))
}

// median is the middle value of xs (the mean of the two middle values
// for an even count). Empty input gives 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// speedupErrPct is the mean of |measured - paper| / paper, in percent,
// over every cell but the baseline [0][0], whose speedup is 1 by
// definition. The two grids must have the same shape.
func speedupErrPct(measured, paper [][]float64) float64 {
	var sum float64
	n := 0
	for si := range measured {
		for ci := range measured[si] {
			if si == 0 && ci == 0 {
				continue
			}
			sum += math.Abs(measured[si][ci]-paper[si][ci]) / paper[si][ci]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// capacity returns the highest rate of the ascending ladder that passes,
// stopping at the first rate that fails: past saturation a lucky step
// does not count. Zero means not even the first rate passed.
func capacity(ladder []float64, pass func(rate float64) bool) float64 {
	best := 0.0
	for _, r := range ladder {
		if !pass(r) {
			break
		}
		best = r
	}
	return best
}

// lagGrows reports whether an open-loop generator fell progressively
// behind its schedule: the median lag of the last third of the requests
// exceeds that of the first third by more than slack. A generator that
// keeps up shows a flat lag, however noisy.
func lagGrows(lags []float64, slack float64) bool {
	if len(lags) < 3 {
		return false
	}
	k := len(lags) / 3
	return median(lags[len(lags)-k:]) > median(lags[:k])+slack
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolen is how long the hypervisor has kept each of the machine's CPUs
// from running so far: the steal column of /proc/stat's cpu line over
// the number of cpuN lines. Zero where the file cannot be read.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(string(b))
}

// parseSteal reads stolen's figure from /proc/stat's text, whose times
// are in USER_HZ ticks of 10 ms.
func parseSteal(stat string) time.Duration {
	var steal uint64
	cpus := 0
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			steal, _ = strconv.ParseUint(f[8], 10, 64)
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(steal) * 10 * time.Millisecond / time.Duration(cpus)
}

// peakRSSMB is the process's peak resident set in MB (ru_maxrss, which
// Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
