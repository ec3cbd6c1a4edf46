package exec

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	for _, width := range []int{0, 1, 2, 7, 64} {
		got, err := Map(width, 20, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		want := make([]int, 20)
		for i := range want {
			want[i] = i * i
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("width %d: got %v", width, got)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map[int](4, 0, func(int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	for _, width := range []int{1, 4} {
		got, err := Map(width, 16, func(i int) (int, error) {
			if i == 5 {
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("width %d: err %v", width, err)
		}
		if got != nil {
			t.Fatalf("width %d: results %v on error", width, got)
		}
	}
}

func TestMapErrorStopsNewWork(t *testing.T) {
	var calls atomic.Int64
	_, err := Map(2, 1000, func(i int) (int, error) {
		calls.Add(1)
		return 0, fmt.Errorf("fail %d", i)
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if c := calls.Load(); c > 4 {
		t.Fatalf("%d calls after failure; want the pool to stop", c)
	}
}

func TestMapConcurrencyBound(t *testing.T) {
	var inFlight, peak atomic.Int64
	_, err := Map(3, 50, func(i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds width 3", p)
	}
}

// TestMapEdgeSemantics pins the pool's contract: a panicking fn
// propagates to the caller without deadlocking the pool, n=0 never
// calls fn, and width > n degrades to n workers — all at both the
// sequential and parallel widths. It also guards the WaitGroup
// discipline: a wg.Add moved into the worker goroutine lets Wait
// return before the workers are counted, and the width-greater-than-n
// case fails.
func TestMapEdgeSemantics(t *testing.T) {
	cases := []struct {
		name      string
		width, n  int
		fn        func(i int) (int, error)
		wantPanic any    // non-nil: Map must re-panic with this value
		wantErr   string // non-empty: Map must fail with this message
		wantLen   int    // checked only on success
	}{
		{
			name:  "panic propagates sequentially",
			width: 1, n: 8,
			fn: func(i int) (int, error) {
				if i == 3 {
					panic("cell 3 blew up")
				}
				return i, nil
			},
			wantPanic: "cell 3 blew up",
		},
		{
			name:  "panic propagates from parallel workers",
			width: 4, n: 64,
			fn: func(i int) (int, error) {
				if i == 11 {
					panic("cell 11 blew up")
				}
				return i, nil
			},
			wantPanic: "cell 11 blew up",
		},
		{
			name:  "lowest-index failure wins over later panic",
			width: 4, n: 64,
			fn: func(i int) (int, error) {
				if i == 2 {
					return 0, errors.New("early error")
				}
				if i == 40 {
					panic("late panic")
				}
				return i, nil
			},
			wantErr: "early error",
		},
		{
			name:  "n=0 returns immediately",
			width: 4, n: 0,
			fn:      func(i int) (int, error) { panic("must not be called") },
			wantLen: 0,
		},
		{
			name:  "width greater than n",
			width: 64, n: 3,
			fn:      func(i int) (int, error) { return i * 10, nil },
			wantLen: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []int
			var err error
			recovered := func() (r any) {
				defer func() { r = recover() }()
				got, err = Map(tc.width, tc.n, tc.fn)
				return nil
			}()
			if tc.wantPanic != nil {
				if recovered != tc.wantPanic {
					t.Fatalf("recovered %v, want panic %v", recovered, tc.wantPanic)
				}
				return
			}
			if recovered != nil {
				t.Fatalf("unexpected panic: %v", recovered)
			}
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.wantLen {
				t.Fatalf("len = %d, want %d", len(got), tc.wantLen)
			}
			for i, v := range got {
				if v != i*10 && tc.name == "width greater than n" {
					t.Fatalf("got[%d] = %d, want %d", i, v, i*10)
				}
			}
		})
	}
}

func TestWidth(t *testing.T) {
	if Width(0) != DefaultParallelism() || Width(-2) != DefaultParallelism() {
		t.Fatal("zero/negative must map to the default")
	}
	if Width(5) != 5 {
		t.Fatal("positive width must pass through")
	}
}
