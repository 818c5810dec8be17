package obs

import "testing"

// TestHistogramQuantile pins the shared quantile implementation that
// `by synth`'s run reports and `by watch` both lean on: the
// q-quantile is the upper bound of the bucket holding the ⌈q·N⌉-th
// observation.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000})
	// 10 observations ≤ 10, 80 in (10,100], 9 in (100,1000], 1 overflow.
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	for i := 0; i < 80; i++ {
		h.Observe(50)
	}
	for i := 0; i < 9; i++ {
		h.Observe(500)
	}
	h.Observe(5000)

	cases := []struct {
		q    float64
		want int64
	}{
		{0, 10},     // clamped to rank 1
		{0.05, 10},  // rank 5 in the first bucket
		{0.10, 10},  // rank 10, still first bucket
		{0.11, 100}, // rank 11 spills into the second
		{0.50, 100},
		{0.90, 100},
		{0.95, 1000},
		{0.99, 1000},
		{0.999, 1000}, // overflow reports the last bound
		{1, 1000},
		{1.5, 1000}, // clamped
	}
	for _, tc := range cases {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}

	s := h.Snap()
	got := s.Quantiles(0.5, 0.99)
	if got[0] != 100 || got[1] != 1000 {
		t.Errorf("Quantiles(0.5, 0.99) = %v, want [100 1000]", got)
	}
	if s.Count != 100 {
		t.Errorf("Snap().Count = %d, want 100", s.Count)
	}
}

func TestHistogramQuantileNilAndEmpty(t *testing.T) {
	var h *Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("nil Quantile = %d, want 0", got)
	}
	if s := h.Snap(); s.Count != 0 || s.Quantile(0.5) != 0 {
		t.Errorf("nil Snap = %+v", s)
	}
	e := newHistogram([]int64{10})
	if got := e.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
}

// TestHistogramSnapSub checks the watch-window delta: quantiles of the
// subtraction cover only the observations between the two snapshots.
func TestHistogramSnapSub(t *testing.T) {
	h := newHistogram([]int64{10, 100, 1000})
	h.Observe(5)
	h.Observe(5)
	before := h.Snap()

	// The new window is all slow observations.
	for i := 0; i < 10; i++ {
		h.Observe(500)
	}
	d := h.Snap().Sub(before)
	if d.Count != 10 {
		t.Fatalf("delta count = %d, want 10", d.Count)
	}
	if got := d.Quantile(0.5); got != 1000 {
		t.Errorf("delta p50 = %d, want 1000 (old fast observations must not dilute the window)", got)
	}
	if got := d.Sum; got != 5000 {
		t.Errorf("delta sum = %d, want 5000", got)
	}

	// Mismatched layouts (daemon restarted with different buckets)
	// degrade to the absolute window.
	other := newHistogram([]int64{1, 2}).Snap()
	abs := h.Snap()
	if got := abs.Sub(other); got.Count != abs.Count {
		t.Errorf("mismatched Sub count = %d, want %d", got.Count, abs.Count)
	}
}
