package daemon

import (
	"errors"
	"slices"
	"testing"
)

// TestCloserStack: a start that fails at any step runs every closer
// pushed before that step exactly once, last pushed first; so does Close
// after a start that succeeds, however often it is called, and it
// returns the first error a closer returned.
func TestCloserStack(t *testing.T) {
	const steps = 4
	for fail := 0; fail <= steps; fail++ {
		var ran []int
		open := func(d *Daemon) error {
			for i := 0; i < steps; i++ {
				if i == fail {
					return errors.New("step failed")
				}
				d.Push(func() error { ran = append(ran, i); return nil })
			}
			return nil
		}
		var want []int
		for i := min(fail, steps) - 1; i >= 0; i-- {
			want = append(want, i)
		}
		d, err := Start(new(Flags), open)
		if fail < steps {
			if err == nil || d != nil {
				t.Fatalf("fail at step %d: Start = %v, %v; want no daemon and the error", fail, d, err)
			}
		} else {
			if err != nil {
				t.Fatal(err)
			}
			if len(ran) != 0 {
				t.Fatalf("a start that succeeded ran closers %v", ran)
			}
			for range 2 {
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !slices.Equal(ran, want) {
			t.Fatalf("fail at step %d: closers ran %v, want %v", fail, ran, want)
		}
	}

	first, second := errors.New("first"), errors.New("second")
	var ran []string
	d, err := Start(new(Flags), func(d *Daemon) error {
		d.Push(func() error { ran = append(ran, "second"); return second })
		d.Push(func() error { ran = append(ran, "clean"); return nil })
		d.Push(func() error { ran = append(ran, "first"); return first })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := d.Close(); !errors.Is(err, first) {
			t.Fatalf("Close = %v, want %v", err, first)
		}
	}
	if want := []string{"first", "clean", "second"}; !slices.Equal(ran, want) {
		t.Fatalf("closers ran %v, want %v", ran, want)
	}
}
