package main

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func smokeOpts(t *testing.T) runOpts {
	return runOpts{seed: 1, window: time.Second, sz: smokeSizes, outdir: t.TempDir(), tmp: t.TempDir(), minTail: 100}
}

// watchListeners records every address listen() opens during the test.
func watchListeners(t *testing.T) *[]string {
	var (
		mu    sync.Mutex
		addrs []string
	)
	onListen = func(addr string) {
		mu.Lock()
		addrs = append(addrs, addr)
		mu.Unlock()
	}
	t.Cleanup(func() { onListen = nil })
	return &addrs
}

// assertNothingLeft checks that the goroutine count is back to the
// baseline, that no listener the run opened still accepts, and that the
// temp dir is empty again.
func assertNothingLeft(t *testing.T, baseline int, addrs []string, tmp string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the run, %d before\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
	if len(addrs) == 0 {
		t.Error("the run opened no listener")
	}
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, 200*time.Millisecond); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts after the run", a)
		}
	}
	left, err := os.ReadDir(tmp)
	if err != nil || len(left) > 0 {
		t.Errorf("temp dir not empty after the run: %v %v", left, err)
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesDefinitions pins BENCHMARK.json to the metric
// and workload tables the binary prints from.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, binary %q", i, b.Workloads[i].Name, w.name)
		}
	}
	gated, layers := gatedNames(), layerNames()
	if len(b.EndToEnd) != len(gated) || len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the binary %d+%d", len(b.EndToEnd), len(b.PerLayer), len(gated), len(layers))
	}
	for i, d := range gated {
		m := b.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, binary has %+v", i, m, d)
		}
	}
	for i, d := range layers {
		m := b.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d) {
			t.Errorf("per_layer[%d] = %+v, binary has %+v", i, m, d)
		}
	}
}

// TestSmoke runs all four workloads at smoke size, untraced and traced,
// and checks that every metric of the driver contract is emitted with a
// unit and a finite value, that nothing failed, and that nothing the
// run created is left behind.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				o := smokeOpts(t)
				o.traced = traced
				addrs := watchListeners(t)
				baseline := runtime.NumGoroutine()
				res, err := runWorkload(context.Background(), w, o)
				if err != nil {
					t.Fatal(err)
				}
				assertNothingLeft(t, baseline, *addrs, o.tmp)
				if !res.Correct || res.get("fail_share") != 0 {
					t.Errorf("attempted %d, failed %d, findings %v", res.Attempted, res.Failed, res.Findings)
				}
				line, err := res.driverLine()
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Metrics map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line, &out); err != nil {
					t.Fatal(err)
				}
				want := gatedNames()
				if traced {
					want = layerNames()
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(out.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := out.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s and a finite value", d.name, m, ok, d.unit)
					}
				}
				if traced {
					for _, f := range []string{"attribution-" + w.name + ".txt", "trace-" + w.name + ".jsonl"} {
						if st, err := os.Stat(filepath.Join(o.outdir, f)); err != nil || st.Size() == 0 {
							t.Errorf("%s not written: %v", f, err)
						}
					}
				}
			})
		}
	}
}

// TestOracleCanFail feeds the oracle a corpus with one entry removed:
// the checker must then count mismatches.
func TestOracleCanFail(t *testing.T) {
	o := smokeOpts(t)
	o.dropFromOracle = true
	res, err := runWorkload(context.Background(), findWorkload("query_scan"), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.get("fail_share") <= 0 {
		t.Errorf("oracle short of one entry still agrees with every answer: failed %d of %d", res.Failed, res.Attempted)
	}
}

// TestInterruptLeavesNothing cancels a run in the middle of its
// measured window, as SIGINT/SIGTERM do, and checks the unwinding.
func TestInterruptLeavesNothing(t *testing.T) {
	for _, name := range []string{"cluster_query", "mixed_durable"} {
		t.Run(name, func(t *testing.T) {
			o := smokeOpts(t)
			o.window = 30 * time.Second
			addrs := watchListeners(t)
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(700*time.Millisecond, cancel)
			defer timer.Stop()
			start := time.Now()
			_, err := runWorkload(ctx, findWorkload(name), o)
			if err == nil || time.Since(start) > 10*time.Second {
				t.Errorf("cancelled run returned %v after %v", err, time.Since(start))
			}
			assertNothingLeft(t, baseline+1, *addrs, o.tmp) // +1: the timer's goroutine may still be finishing
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "query_p50_ms", bound: 0.08}
	higher := metricDef{name: "query_ops_s", higher: true, bound: 0.08}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 106}, verdictWithin},
		{lower, steady, []float64{120, 121, 119, 120, 122}, verdictWorse},
		{lower, steady, []float64{80, 81, 79, 80, 82}, verdictWithin}, // better is never worse
		{higher, steady, []float64{80, 81, 79, 80, 82}, verdictWorse},
		{higher, steady, []float64{120, 121, 119, 120, 122}, verdictWithin},
		{lower, []float64{100, 130, 80, 100, 120}, []float64{120, 121, 119, 120, 122}, verdictUnresolved},
		{metricDef{name: "fail_share"}, []float64{0, 0, 0}, []float64{0, 0.01, 0.01}, verdictWorse},
		{metricDef{name: "fail_share"}, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictWithin},
	}
	for i, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: judge = %q, want %q", i, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		var rs []*result
		for i := 0; i < 3; i++ {
			r := newResult("query_point", int64(i), false)
			r.set("query_p50_ms", p50+float64(i)*0.001, 1000)
			r.set("fail_share", 0, 1000)
			rs = append(rs, r)
		}
		if err := appendResults(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 0.100), write("same.json", 0.101), write("slow.json", 0.150)
	var out strings.Builder
	if worse, err := compareFiles(&out, a, same); err != nil || worse {
		t.Errorf("same commit: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, a, slow); err != nil || !worse {
		t.Errorf("slower candidate: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("no %s verdict printed:\n%s", verdictWorse, out.String())
	}
	if _, err := compareFiles(&out, a, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
