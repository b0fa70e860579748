package pool

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		n := 33
		var ran [33]int32
		if err := Map(n, workers, func(i int) error {
			atomic.AddInt32(&ran[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Map(10, workers, func(i int) error {
			if i == 7 || i == 3 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 3" {
			t.Fatalf("workers=%d: err = %v, want fail 3", workers, err)
		}
	}
}

func TestMapResultsIndependentOfWorkers(t *testing.T) {
	run := func(workers int) []int {
		out := make([]int, 50)
		if err := Map(len(out), workers, func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 8, 50} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapZeroItems(t *testing.T) {
	if err := Map(0, 4, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestNestedMapStaysWithinGOMAXPROCS nests Map three deep at GOMAXPROCS(4).
// Every level asks for the default width, yet the leaf tasks running at
// once must never exceed 4 — the levels share one helper budget instead of
// multiplying — and the lowest-index error must surface through every
// level.
func TestNestedMapStaysWithinGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var ran [64]int32
	var running, peak atomic.Int64
	err := Map(4, 0, func(a int) error {
		return Map(4, 0, func(b int) error {
			return Map(4, 0, func(c int) error {
				i := a*16 + b*4 + c
				atomic.AddInt32(&ran[i], 1)
				r := running.Add(1)
				for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
				}
				time.Sleep(time.Millisecond)
				running.Add(-1)
				if i == 22 || i == 37 || i == 61 {
					return fmt.Errorf("fail %d", i)
				}
				return nil
			})
		})
	})
	if err == nil || err.Error() != "fail 22" {
		t.Fatalf("err = %v, want fail 22", err)
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("%d leaf tasks ran at once at GOMAXPROCS(4)", p)
	}
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("leaf %d ran %d times", i, c)
		}
	}
}
