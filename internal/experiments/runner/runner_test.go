package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		out, err := Map(nil, workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapLowestIndexError(t *testing.T) {
	// Jobs 7 and 3 fail; every run must report job 3's error, like a
	// serial loop would.
	for _, workers := range []int{1, 4} {
		_, err := Map(nil, workers, 10, func(i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: got %v, want job 3's error", workers, err)
		}
	}
}

func TestMapContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 1, 5, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestPrefetchSerialIsLazy(t *testing.T) {
	var computed atomic.Int32
	ps, cancel := Prefetch(nil, 1, 5, func(i int) (int, error) {
		computed.Add(1)
		return i, nil
	})
	defer cancel()
	if got := computed.Load(); got != 0 {
		t.Fatalf("serial prefetch computed %d jobs eagerly", got)
	}
	v, err := ps[2].Wait()
	if err != nil || v != 2 {
		t.Fatalf("Wait: %v, %v", v, err)
	}
	if got := computed.Load(); got != 1 {
		t.Fatalf("computed %d jobs, want exactly the one waited on", got)
	}
	// Waiting twice must not recompute.
	if _, err := ps[2].Wait(); err != nil {
		t.Fatal(err)
	}
	if got := computed.Load(); got != 1 {
		t.Fatalf("second Wait recomputed (total %d)", got)
	}
}

func TestPrefetchParallelResolvesAll(t *testing.T) {
	ps, cancel := Prefetch(nil, 4, 20, func(i int) (int, error) { return i * 10, nil })
	defer cancel()
	for i, p := range ps {
		v, err := p.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if v != i*10 {
			t.Fatalf("job %d: got %d", i, v)
		}
	}
}

func TestPrefetchCancelStopsUnstarted(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	ps, cancel := Prefetch(nil, 2, 50, func(i int) (int, error) {
		if i < 2 {
			started <- struct{}{}
			<-release
		}
		return i, nil
	})
	<-started
	<-started
	// Release the in-flight jobs just before cancelling: cancel *joins*
	// the pool, so it must not be called while a job blocks forever.
	close(release)
	cancel()
	// After cancel returns the pool is drained: the first two jobs were in
	// flight and must have resolved with real values.
	for i := 0; i < 2; i++ {
		if v, err := ps[i].Wait(); err != nil || v != i {
			t.Fatalf("in-flight job %d: %v, %v", i, v, err)
		}
	}
	// The tail must resolve (with either a value or a cancellation error)
	// rather than block forever, and every Wait must return immediately
	// since cancel already joined the workers.
	cancelled := 0
	for i := 2; i < 50; i++ {
		if _, err := ps[i].Wait(); err != nil {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Log("note: all 50 jobs ran before cancel — scheduling-dependent, not a failure")
	}
}

func TestRegistry(t *testing.T) {
	// The registry is process-global: under -count=2 T1 is already there.
	if _, again := Lookup("T1"); !again {
		Register(Experiment{
			ID:     "T1",
			Title:  "test experiment",
			Params: "none",
			Run: func(o Options) (*Table, error) {
				return &Table{ID: "T1", Title: "test", Header: []string{"w"}, Rows: [][]string{{itoa(o.Workers())}}}, nil
			},
		})
	}

	if _, ok := Lookup("T1"); !ok {
		t.Fatal("T1 not found after Register")
	}
	found := false
	for _, info := range List() {
		if info.ID == "T1" && info.Title == "test experiment" {
			found = true
		}
	}
	if !found {
		t.Fatal("T1 missing from List")
	}

	res, err := RunOne("T1", Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Rows[0][0] != "3" {
		t.Fatalf("options not threaded through: %v", res.Table.Rows)
	}
	if res.Workers != 3 {
		t.Fatalf("result workers = %d", res.Workers)
	}

	if _, err := RunOne("NOPE", Options{}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown ID error: %v", err)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(Experiment{ID: "T1", Run: func(Options) (*Table, error) { return nil, nil }})
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"col", "value"},
		Rows:   [][]string{{"a", "1"}, {"bb", "22"}},
		Notes:  []string{"a note"},
	}
	out := tab.Render()
	for _, want := range []string{"EX — demo", "col", "bb", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestMapParallelContextCancelled: the caller's cancellation is an error
// at every worker count. The pool used to drop the unclaimed jobs and
// return its half-filled slice with a nil error.
func TestMapParallelContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 4, 50, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
