// Package minheap is a binary heap over a slice the caller owns, typed by
// a generic parameter: elements are never boxed into an interface and no
// operation allocates beyond the slice's own growth. The element for
// which less holds against every other sits at index 0; pass a reversed
// less for a max-heap.
package minheap

// Push adds x and returns the extended slice.
func Push[T any](s []T, x T, less func(a, b *T) bool) []T {
	s = append(s, x)
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !less(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	return s
}

// Pop removes and returns the top element. The vacated slot is zeroed,
// so a slice that is reused holds no stale pointers beyond its length.
func Pop[T any](s []T, less func(a, b *T) bool) (T, []T) {
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	var zero T
	s[last] = zero
	s = s[:last]
	down(s, less)
	return top, s
}

// ReplaceTop overwrites the top element with x and restores the order —
// one sift instead of a Pop and a Push.
func ReplaceTop[T any](s []T, x T, less func(a, b *T) bool) {
	s[0] = x
	down(s, less)
}

func down[T any](s []T, less func(a, b *T) bool) {
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < len(s) && less(&s[l], &s[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(s) && less(&s[r], &s[least]) {
			least = r
		}
		if least == i {
			return
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}
