package idset

import "testing"

// BenchmarkMapPut times one Put in two id orders, each filling a fresh
// Map with 49 152 ids before starting the next. Dense is the memtable's:
// ids in order, the value a WAL generation that steps every 4096 ids.
// Interleaved is what the id→window map sees while Open walks one
// segment after another: id j belongs to window j%24, and the windows'
// ids come one window at a time, so every page takes its ids in 24
// passes, each inserted among the earlier ones.
func BenchmarkMapPut(b *testing.B) {
	const windows, n = 24, 24 << 11
	for _, tc := range []struct {
		name string
		put  func(j uint64) (id uint64, v int64) // the j-th Put of a fill
	}{
		{"dense", func(j uint64) (uint64, int64) { return j, int64(j >> 12) }},
		{"interleaved24", func(j uint64) (uint64, int64) {
			w := j / (n / windows)
			return j%(n/windows)*windows + w, 480_000 + int64(w)
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var m Map
			for i := range uint64(b.N) {
				j := i % n
				if j == 0 {
					m = Map{}
				}
				m.Put(tc.put(j))
			}
		})
	}
}
