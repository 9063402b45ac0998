package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fovr/internal/store"
)

// runOpts selects one run of one workload.
type runOpts struct {
	seed    int64
	window  time.Duration // measured window
	sz      sizes
	traced  bool
	outdir  string // trace and attribution files; empty writes none
	tmp     string // parent of temp dirs; empty selects the system default
	minTail int    // samples a p99 needs before it is reported
	// dropFromOracle removes one entry that a sampled answer contains
	// from the oracle's corpus, so the checker must report mismatches.
	dropFromOracle bool
}

// heapLive is HeapAlloc after a forced collection.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// standUp runs one timed set-up and returns the system with the
// set-up's wall time and live-heap growth.
func standUp(ctx context.Context, w *workloadDef, in *inputs, env *runEnv) (sys *system, seconds float64, heap float64, err error) {
	clear(env.ids)
	before := heapLive()
	start := time.Now()
	sys = &system{}
	if err = w.setup(ctx, sys, in, env); err != nil {
		sys.close()
		return nil, 0, 0, err
	}
	seconds = time.Since(start).Seconds()
	heap = float64(heapLive()) - float64(before)
	return sys, seconds, heap, nil
}

// runWorkload measures one workload once: untraced for the end-to-end
// metrics, traced for the per-layer ones.
func runWorkload(ctx context.Context, w *workloadDef, o runOpts) (*result, error) {
	in, err := genInputs(o.seed, o.sz, w)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	res := newResult(w.name, o.seed, o.traced)
	// The id table is allocated before the first heap sample so it,
	// like the corpus slices, is held constant across both samples.
	env := &runEnv{tmp: o.tmp, ids: make([]uint64, o.sz.entries+o.sz.extra)}
	if o.traced {
		env.tr = newTracer()
	}
	entries := float64(o.sz.entries)

	setups := o.sz.setups
	if o.traced {
		setups = 1
	}
	var (
		sys                      *system
		setupS, heapPer, ingestS []float64
	)
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	for round := 0; round < setups; round++ {
		if sys != nil {
			sys.close()
		}
		var s, h float64
		if sys, s, h, err = standUp(ctx, w, in, env); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, s)
		heapPer = append(heapPer, h/entries)
		ingestS = append(ingestS, entries/sys.ingestS)
	}
	res.set("setup_s", median(setupS), len(setupS))
	res.set("heap_bytes_per_entry", median(heapPer), len(heapPer))
	res.set("ingest_entries_s", median(ingestS), len(ingestS))

	d := &driver{w: w, in: in, sys: sys, env: env, prog: &progress{}}
	var samples []sample
	if !o.traced {
		run, err := d.drive(ctx, o.sz.warm, o.window, nil)
		if err != nil {
			return nil, err
		}
		run.endToEnd(res, o)
		samples = run.samples
		res.Attempted, res.Failed = len(run.ops)+run.failed, run.failed
	} else {
		// One set-up serves a short untraced window (the base of
		// trace.overhead_pct and of the end-to-end metrics that only
		// some workloads have), the traced window, and the replays.
		plain, err := d.drive(ctx, o.sz.warm/2, o.window*3/10, nil)
		if err != nil {
			return nil, err
		}
		plain.endToEnd(res, o)
		run, err := d.drive(ctx, o.sz.warm/2, o.window/2, env.tr)
		if err != nil {
			return nil, err
		}
		if sys.disk != nil {
			storeLayer(sys, res)
		}
		if err := analyse(ctx, d, plain, run, res, o); err != nil {
			return nil, err
		}
		samples = append(plain.samples, run.samples...)
		res.Failed = plain.failed + run.failed
		res.Attempted = len(plain.ops) + len(run.ops) + res.Failed
	}

	checked, wrong := verify(in, env.ids, samples, o.dropFromOracle)
	res.Failed += wrong
	if checked == 0 {
		res.Findings = append(res.Findings, "no answer was sampled for the oracle")
		res.Failed++
	}

	if sys.disk != nil {
		if err := durableEpilogue(ctx, d, res, o); err != nil {
			return nil, err
		}
	}
	res.set("fail_share", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// driver runs measurement windows against one stood-up system.
type driver struct {
	w    *workloadDef
	in   *inputs
	sys  *system
	env  *runEnv
	prog *progress // the write stream's position in in.extra
}

// loadRun is the merged observation of one window.
type loadRun struct {
	window  time.Duration
	ops     []op
	samples []sample
	spans   []clientSpan
	lateNs  []int64
	failed  int
}

// pick returns connection j's request sequence: distinct requests from
// its own half of the pool, every 8th a /nearest where the workload
// mixes them in.
func (d *driver) pick(j int) func(i int) *request {
	qs, ns := d.in.queries, d.in.nearest
	off := j * len(qs) / 2
	return func(i int) *request {
		if len(ns) > 0 {
			if i%8 == 7 {
				return &ns[(off+i/8)%len(ns)]
			}
			i -= i / 8
		}
		return &qs[(off+i)%len(qs)]
	}
}

// samplesPerConn is how many answers per connection and window the
// oracle checks; each check is a linear scan of the corpus.
const samplesPerConn = 150

// drive opens the two client connections, runs warm-up and one measured
// window, and closes the connections again.
func (d *driver) drive(ctx context.Context, warm, length time.Duration, tr *tracer) (*loadRun, error) {
	var cl closers
	defer cl.close()
	conns := make([]*conn, 2)
	for j := range conns {
		c, err := dial(&cl, d.sys.addr)
		if err != nil {
			return nil, err
		}
		conns[j] = c
	}
	now := time.Now()
	open := now.Add(warm)
	win := window{open: open, close: open.Add(length), every: length / samplesPerConn}
	stats := make([]*loadStats, len(conns))
	var wg sync.WaitGroup
	for j, c := range conns {
		wg.Add(1)
		go func(j int, c *conn) {
			defer wg.Done()
			var (
				writer *progress
				sched  *schedule
			)
			if d.w.writer {
				writer = d.prog
				if j == 0 {
					sent, _ := d.prog.read()
					sched = &schedule{
						start: now, interval: writerInterval, uploads: d.in.extra[sent:],
						onAck: func(u *upload, body []byte) error { return recordAck(d.env.ids, u, body) },
					}
				}
			}
			stats[j] = clientLoop(ctx, c, win, d.pick(j), j, tr, writer, sched)
		}(j, c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	run := &loadRun{window: length}
	for _, st := range stats {
		if st.err != nil {
			// A broken connection ends the run: the numbers would
			// describe a one-connection load.
			return nil, st.err
		}
		run.ops = append(run.ops, st.ops...)
		run.samples = append(run.samples, st.samples...)
		run.spans = append(run.spans, st.spans...)
		run.lateNs = append(run.lateNs, st.lateNs...)
		run.failed += st.failed
	}
	return run, nil
}

// latencies of one kind, in ms, per slice of the window.
func (r *loadRun) slices(kind int, slice time.Duration) [][]float64 {
	n := int(r.window / slice)
	if n < 1 {
		n, slice = 1, r.window
	}
	out := make([][]float64, n)
	for _, o := range r.ops {
		if o.kind != kind {
			continue
		}
		if s := int(o.endNs / int64(slice)); s < n {
			out[s] = append(out[s], float64(o.durNs)/1e6)
		}
	}
	return out
}

// acrossSlices is the median over slices of one statistic per slice,
// which keeps a single disturbed stretch of a shared host from moving
// the reported value; n is the total sample count behind it.
func acrossSlices(slices [][]float64, stat func(sorted []float64) float64) (v float64, n int) {
	var per []float64
	for _, s := range slices {
		n += len(s)
		if len(s) > 0 {
			per = append(per, stat(sortedCopy(s)))
		}
	}
	return median(per), n
}

func flatten(slices [][]float64) []float64 {
	var all []float64
	for _, s := range slices {
		all = append(all, s...)
	}
	sort.Float64s(all)
	return all
}

func p50(s []float64) float64 { return percentile(s, 50) }
func p99(s []float64) float64 { return percentile(s, 99) }

// tail reports a p99: per slice when every slice has enough samples,
// over the whole window when only that has, not at all otherwise.
func tail(slices [][]float64, minTail int) (v float64, n int) {
	enough := true
	for _, s := range slices {
		enough = enough && len(s) >= minTail
	}
	if enough {
		return acrossSlices(slices, p99)
	}
	if all := flatten(slices); len(all) >= minTail {
		return p99(all), len(all)
	}
	return 0, 0
}

// endToEnd derives the latency and throughput metrics of one untraced
// window.
func (r *loadRun) endToEnd(res *result, o runOpts) {
	slice := o.sz.slice
	queries := r.slices(kindQuery, slice)
	nearest := r.slices(kindNearest, slice)
	uploads := r.slices(kindUpload, slice)

	sliceS := min(slice, r.window).Seconds()
	var rates []float64
	for i := range queries {
		rates = append(rates, float64(len(queries[i])+len(nearest[i]))/sliceS)
	}
	reads := 0
	for i := range queries {
		reads += len(queries[i]) + len(nearest[i])
	}
	res.set("query_ops_s", median(rates), reads)
	v, n := acrossSlices(queries, p50)
	res.set("query_p50_ms", v, n)
	if v, n = tail(queries, o.minTail); n > 0 {
		res.set("query_p99_ms", v, n)
	}
	if v, n = acrossSlices(nearest, p50); n > 0 {
		res.set("nearest_p50_ms", v, n)
	}
	if all := flatten(uploads); len(all) > 0 {
		// Uploads arrive at 100/s, too few for per-slice tails.
		res.set("upload_p50_ms", p50(all), len(all))
		if len(all) >= o.minTail {
			res.set("upload_p99_ms", p99(all), len(all))
		}
	}
}

// dirBytes sums regular-file sizes under dir by name prefix.
func dirBytes(dir string) (total int64, byPrefix map[string]int64, err error) {
	byPrefix = map[string]int64{}
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // rotated away between listing and stat
			}
			return err
		}
		total += info.Size()
		for _, p := range []string{"wal-", "checkpoint-", "seg-"} {
			if strings.HasPrefix(e.Name(), p) {
				byPrefix[p] += info.Size()
			}
		}
		return nil
	})
	return total, byPrefix, err
}

// durableEpilogue closes the node, measures the data dir, reopens it
// and checks that exactly the acknowledged entries come back.
func durableEpilogue(ctx context.Context, d *driver, res *result, o runOpts) error {
	sys := d.sys
	sys.serving.close()
	acked := 0
	for _, id := range d.env.ids {
		if id != 0 {
			acked++
		}
	}
	total, _, err := dirBytes(sys.storeOpts.Dir)
	if err != nil {
		return err
	}
	res.set("disk_bytes_per_entry", float64(total)/float64(acked), 1)

	start := time.Now()
	disk, err := store.Open(sys.storeOpts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	res.set("recover_s", time.Since(start).Seconds(), 1)
	sys.files.add(func() { _ = disk.Close() })
	recovered, took := disk.RecoveryStats()
	if o.traced && took > 0 {
		res.set("store.recover_entries_s", float64(recovered)/took.Seconds(), 1)
	}
	if got := len(disk.Entries()); got != acked {
		res.Findings = append(res.Findings, fmt.Sprintf("recovered %d entries, acknowledged %d", got, acked))
		res.Failed++
	}
	return ctx.Err()
}

// runAll measures every workload, untraced then traced, and prints every
// metric by name. It returns the results and whether all were correct.
func runAll(ctx context.Context, o runOpts, out *os.File) ([]*result, bool, error) {
	var all []*result
	ok := true
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o.traced = traced
			res, err := runWorkload(ctx, w, o)
			if err != nil {
				return all, false, fmt.Errorf("%s: %w", w.name, err)
			}
			res.print(out)
			all = append(all, res)
			ok = ok && res.Correct
		}
	}
	return all, ok, nil
}
