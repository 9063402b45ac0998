package index

import (
	"math/rand"
	"testing"

	"fovr/internal/geo"
	"fovr/internal/obs"
)

// newInstrumentedSharded builds a sharded index with lock-wait classes
// attached via a fresh registry.
func newInstrumentedSharded(t *testing.T) (*Sharded, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	x, err := NewSharded(ShardedOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return x, reg
}

func TestShardedLockAccounting(t *testing.T) {
	obs.SetLockSampleRate(1) // time every acquisition
	defer obs.SetLockSampleRate(0)
	x, reg := newInstrumentedSharded(t)
	rng := rand.New(rand.NewSource(7))
	for id := uint64(1); id <= 200; id++ {
		if err := x.Insert(randEntry(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	q := geo.Rect{MinLat: -90, MaxLat: 90, MinLng: -180, MaxLng: 180}
	for i := 0; i < 20; i++ {
		x.Search(q, 0, 86_400_000)
	}
	shardWait := reg.NsHistogram(`fovr_lock_wait_ns{class="index.shard"}`)
	stripeWait := reg.NsHistogram(`fovr_lock_wait_ns{class="index.idmap"}`)
	if shardWait.Count() == 0 {
		t.Error("no shard lock waits recorded at rate 1")
	}
	if stripeWait.Count() == 0 {
		t.Error("no id-map stripe waits recorded at rate 1")
	}
	shardHold := reg.NsHistogram(`fovr_lock_hold_ns{class="index.shard"}`)
	if shardHold.Count() != shardWait.Count() {
		t.Errorf("shard holds %d != waits %d", shardHold.Count(), shardWait.Count())
	}
}

// TestShardedReadsTakeNoShardLocks pins the snapshot read path's core
// property: with every acquisition timed (rate 1), searches and
// nearest-neighbour queries record zero index.shard acquisitions — the
// read path resolves shards from the published view and never touches a
// stripe lock — while ingest keeps being sampled as before.
func TestShardedReadsTakeNoShardLocks(t *testing.T) {
	obs.SetLockSampleRate(1)
	defer obs.SetLockSampleRate(0)
	x, reg := newInstrumentedSharded(t)
	rng := rand.New(rand.NewSource(13))
	for id := uint64(1); id <= 300; id++ {
		if err := x.Insert(randEntry(rng, id)); err != nil {
			t.Fatal(err)
		}
	}
	shardWait := reg.NsHistogram(`fovr_lock_wait_ns{class="index.shard"}`)
	ingestSamples := shardWait.Count()
	if ingestSamples == 0 {
		t.Fatal("ingest recorded no shard acquisitions at rate 1")
	}
	q := geo.Rect{MinLat: -90, MaxLat: 90, MinLng: -180, MaxLng: 180}
	for i := 0; i < 50; i++ {
		x.Search(q, 0, 86_400_000)
		x.Nearest(city, 0, 86_400_000, 5, 0, nil)
	}
	if got := shardWait.Count(); got != ingestSamples {
		t.Fatalf("queries recorded %d shard acquisitions (total %d, ingest %d); reads must not take shard locks",
			got-ingestSamples, got, ingestSamples)
	}
	// Ingest after the read burst still samples.
	if err := x.Insert(randEntry(rng, 10_000)); err != nil {
		t.Fatal(err)
	}
	if shardWait.Count() <= ingestSamples {
		t.Fatal("ingest stopped being sampled after the read burst")
	}
}

// TestShardedLockOffNoExtraAllocs pins the acceptance contract on the
// real query path: with sampling off, the instrumented index allocates
// exactly as much per search as an uninstrumented one.
func TestShardedLockOffNoExtraAllocs(t *testing.T) {
	obs.SetLockSampleRate(0)
	build := func(reg *obs.Registry) *Sharded {
		x, err := NewSharded(ShardedOptions{Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for id := uint64(1); id <= 500; id++ {
			if err := x.Insert(randEntry(rng, id)); err != nil {
				t.Fatal(err)
			}
		}
		return x
	}
	plain := build(nil)
	instr := build(obs.NewRegistry())
	q := geo.Rect{MinLat: 39.9, MaxLat: 40.1, MinLng: 116.2, MaxLng: 116.4}
	measure := func(x *Sharded) float64 {
		x.Search(q, 0, 86_400_000) // warm shard set
		return testing.AllocsPerRun(200, func() {
			x.Search(q, 0, 86_400_000)
		})
	}
	base, got := measure(plain), measure(instr)
	if got > base {
		t.Fatalf("sampling-off instrumented search allocates %.1f/op, uninstrumented %.1f/op", got, base)
	}
}
