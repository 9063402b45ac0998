package minheap

import (
	"math/rand"
	"sort"
	"testing"
)

func intLess(a, b *int) bool { return *a < *b }

func TestPushPopSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		want := make([]int, rng.Intn(200))
		var h []int
		for i := range want {
			want[i] = rng.Intn(50) // duplicates on purpose
			h = Push(h, want[i], intLess)
		}
		sort.Ints(want)
		for i, w := range want {
			var got int
			got, h = Pop(h, intLess)
			if got != w {
				t.Fatalf("trial %d: pop %d = %d, want %d", trial, i, got, w)
			}
		}
		if len(h) != 0 {
			t.Fatalf("heap holds %d after popping everything", len(h))
		}
	}
}

// A bounded max-heap built from Push and ReplaceTop keeps the n smallest.
func TestReplaceTopKeepsSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	more := func(a, b *int) bool { return *a > *b }
	const n = 10
	all := make([]int, 500)
	var h []int
	for i := range all {
		all[i] = rng.Intn(10_000)
		switch {
		case len(h) < n:
			h = Push(h, all[i], more)
		case all[i] < h[0]:
			ReplaceTop(h, all[i], more)
		}
	}
	sort.Ints(all)
	sort.Ints(h)
	for i := range h {
		if h[i] != all[i] {
			t.Fatalf("kept %v, want the %d smallest %v", h, n, all[:n])
		}
	}
}

func TestPopZeroesVacatedSlot(t *testing.T) {
	a, b := 1, 2
	less := func(x, y **int) bool { return **x < **y }
	h := Push(Push(nil, &b, less), &a, less)
	_, h = Pop(h, less)
	if h[:2][1] != nil {
		t.Fatal("popped slot still holds its pointer")
	}
}
