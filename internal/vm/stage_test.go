package vm

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"halo/internal/isa"
	"halo/internal/mem"
	"halo/internal/pool"
	"halo/internal/pool/pooltest"
	"halo/internal/prog"
)

// probeSink records the stream like recordSink and also whether any batch
// was consumed while the pool's helper budget had room, which a staged
// run at GOMAXPROCS 2 never allows: its own helper holds the budget.
type probeSink struct {
	recordSink
	sawFreeHelper bool
	panicAt       int // batch index to panic at; -1 never
}

func (s *probeSink) ConsumeEvents(batch []Event) {
	if len(s.batches) == s.panicAt {
		panic(fmt.Sprintf("sink fault at batch %d", s.panicAt))
	}
	s.recordSink.ConsumeEvents(batch)
	if done, ok := pool.Go(func() {}); ok {
		<-done
		s.sawFreeHelper = true
	}
}

// buildLoopProgram allocates, stores, loads and calls n times, then runs
// tail (nil for a plain return). It emits about 6n events.
func buildLoopProgram(t *testing.T, n int, tail func(f *prog.FuncBuilder)) *isa.Program {
	t.Helper()
	b := prog.NewBuilder("loop")
	touch := b.Func("touch", 1)
	r := touch.Reg()
	touch.LoadWord(r, touch.Param(0), 0)
	touch.Ret(r)

	f := b.Func("main", 0)
	size := f.ConstReg(24)
	f.LoopN(int64(n), func(i prog.Reg) {
		p := f.Malloc(size)
		f.StoreWord(p, 0, i)
		f.Call("touch", p)
		f.Free(p)
	})
	if tail != nil {
		tail(f)
	}
	f.RetConst(0)
	pr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// runStream runs p once and returns the sink plus Run's error and any
// panic raised through Run. A Run that does not return within 20 s
// fails the test as deadlocked.
func runStream(t *testing.T, p *isa.Program, alloc Allocator, sink *probeSink, cfg Config) (raised any, err error) {
	t.Helper()
	type outcome struct {
		err    error
		raised any
	}
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			o.raised = recover()
			ch <- o
		}()
		m := mem.NewMemory()
		if alloc == nil {
			alloc = newBump(m)
		}
		_, o.err = New(p, m, alloc, sink, cfg).Run()
	}()
	select {
	case o := <-ch:
		return o.raised, o.err
	case <-time.After(20 * time.Second):
		t.Fatal("Run did not return: deadlock")
		return nil, nil
	}
}

// stagedAgainstInline runs p inline and staged (at GOMAXPROCS 2) and
// requires the same batches in the same order, the same error, and the
// same raised panic; it returns the staged sink.
func stagedAgainstInline(t *testing.T, p *isa.Program, newAlloc func() Allocator, cfg Config, panicAt int) *probeSink {
	t.Helper()
	alloc := func() Allocator {
		if newAlloc == nil {
			return nil
		}
		return newAlloc()
	}
	want := &probeSink{panicAt: panicAt}
	wantRaised, wantErr := runStream(t, p, alloc(), want, cfg)
	got := &probeSink{panicAt: panicAt}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg.OverlapSink = true
	gotRaised, gotErr := runStream(t, p, alloc(), got, cfg)
	pooltest.RequireHelper(t)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("staged error %v, inline %v", gotErr, wantErr)
	}
	if gotRaised != wantRaised {
		t.Fatalf("staged run raised %v, inline %v", gotRaised, wantRaised)
	}
	if !reflect.DeepEqual(got.batches, want.batches) {
		t.Fatalf("staged batches %v, inline %v", got.batches, want.batches)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Fatalf("staged stream differs: %d events, inline %d", len(got.events), len(want.events))
	}
	if got.sawFreeHelper {
		t.Fatal("a staged batch was consumed while the helper budget had room: the sink ran inline")
	}
	return got
}

// TestStagedStreamMatchesInline: a staged sink receives exactly the
// batches inline delivery gives it, at every batch size.
func TestStagedStreamMatchesInline(t *testing.T) {
	p := buildLoopProgram(t, 3000, nil)
	for _, batch := range []int{1, 7, 64, DefaultBatchSize} {
		got := stagedAgainstInline(t, p, nil, Config{BatchSize: batch}, -1)
		if len(got.events) < 6*3000 {
			t.Fatalf("batch=%d: %d events, want at least %d", batch, len(got.events), 6*3000)
		}
	}
}

// TestStagedStreamOnTrapAndBudget: trap and step-budget exits deliver the
// complete stream to a staged sink.
func TestStagedStreamOnTrapAndBudget(t *testing.T) {
	trap := buildLoopProgram(t, 2000, func(f *prog.FuncBuilder) {
		r, z := f.Reg(), f.ConstReg(0)
		f.Div(r, z, z)
	})
	got := stagedAgainstInline(t, trap, nil, Config{BatchSize: 64}, -1)
	if len(got.events) < 6*2000 {
		t.Fatalf("trap: %d events, want at least %d", len(got.events), 6*2000)
	}
	long := buildLoopProgram(t, 1_000_000, nil)
	got = stagedAgainstInline(t, long, nil, Config{BatchSize: 64, MaxSteps: 40_001}, -1)
	if len(got.events) == 0 {
		t.Fatal("budget: no events delivered")
	}
}

// TestStagedSinkPanic: a sink that panics on the helper makes Run panic
// on its caller with the same value, whether the VM is still running
// (early batches) or already draining (the last, partial batch).
func TestStagedSinkPanic(t *testing.T) {
	p := buildLoopProgram(t, 3000, nil)
	last := len(stagedAgainstInline(t, p, nil, Config{BatchSize: 64}, -1).batches) - 1
	for _, at := range []int{0, 5, last} {
		got := stagedAgainstInline(t, p, nil, Config{BatchSize: 64}, at)
		if len(got.batches) != at {
			t.Fatalf("panic at batch %d: sink consumed %d batches", at, len(got.batches))
		}
	}
}

// panicAlloc panics on its n-th Malloc.
type panicAlloc struct {
	*bumpAlloc
	n int
}

func (a *panicAlloc) Malloc(size uint64) uint64 {
	if a.n--; a.n == 0 {
		panic("allocator fault")
	}
	return a.bumpAlloc.Malloc(size)
}

// TestStagedAllocatorPanic: an allocator panic unwinding through Run
// still drains every event emitted before it to the staged sink.
func TestStagedAllocatorPanic(t *testing.T) {
	p := buildLoopProgram(t, 3000, nil)
	newAlloc := func() Allocator { return &panicAlloc{bumpAlloc: newBump(mem.NewMemory()), n: 1500} }
	got := stagedAgainstInline(t, p, newAlloc, Config{BatchSize: 64}, -1)
	if len(got.events) < 6*1499 {
		t.Fatalf("%d events before the allocator fault, want at least %d", len(got.events), 6*1499)
	}
}
