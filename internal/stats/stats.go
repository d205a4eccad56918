package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates a running mean and variance using Welford's
// algorithm, which is numerically stable for long runs. The zero value
// is an empty accumulator ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest observation, or 0 with no observations.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 with no observations.
func (w *Welford) Max() float64 { return w.max }

// Variance returns the unbiased sample variance, or 0 for fewer than
// two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CI95 returns the half-width of the 95% confidence interval of the
// mean using the normal approximation (fine for the sample sizes the
// simulator produces).
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * w.StdDev() / math.Sqrt(float64(w.n))
}

// Merge folds other into w, as if all of other's observations had been
// added to w. Min/max are combined as well.
func (w *Welford) Merge(other *Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n := w.n + other.n
	d := other.mean - w.mean
	w.m2 += other.m2 + d*d*float64(w.n)*float64(other.n)/float64(n)
	w.mean += d * float64(other.n) / float64(n)
	w.n = n
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
}

// TimeWeighted tracks the time-average of a piecewise-constant signal,
// such as a queue length or a busy indicator. Utilization is the
// time-average of a 0/1 busy signal.
type TimeWeighted struct {
	last    float64 // last recorded value
	lastT   float64 // time of last update
	area    float64 // integral of the signal
	started bool
	startT  float64
}

// Update records that the signal had value v from the previous update
// time until now, then switches to v. The first call establishes the
// observation origin.
func (t *TimeWeighted) Update(now, v float64) {
	if !t.started {
		t.started = true
		t.startT = now
		t.lastT = now
		t.last = v
		return
	}
	t.area += t.last * (now - t.lastT)
	t.lastT = now
	t.last = v
}

// Mean returns the time-average of the signal up to now.
func (t *TimeWeighted) Mean(now float64) float64 {
	if !t.started || now <= t.startT {
		return 0
	}
	area := t.area + t.last*(now-t.lastT)
	return area / (now - t.startT)
}

// Reset restarts observation at the given time, keeping the current
// signal value. Used to discard the warm-up period.
func (t *TimeWeighted) Reset(now float64) {
	if !t.started {
		t.started = true
		t.last = 0
	} else {
		// Fold the signal forward so the current value carries over.
		t.Update(now, t.last)
	}
	t.startT = now
	t.lastT = now
	t.area = 0
}

// Mean computes the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (the average of the two central
// elements for even lengths), or 0 for an empty slice. xs is not
// modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// RelativeError returns |got-want| / |want|. A zero want with a
// nonzero got returns +Inf; zero/zero returns 0.
func RelativeError(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// FormatMS renders a duration in seconds as a millisecond string for
// tables, e.g. 0.04162 -> "41.62".
func FormatMS(seconds float64) string {
	return fmt.Sprintf("%.2f", seconds*1000)
}
