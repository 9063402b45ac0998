// Command fovbench regenerates every figure and table of the paper's
// evaluation section (and this repo's ablations) as ASCII tables or CSV.
//
// Usage:
//
//	fovbench                  # run everything
//	fovbench -fig 3           # one figure: 3, 4, 5, 6a, 6b, 6c
//	fovbench -table traffic   # one table: traffic, utility, ablation
//	fovbench -csv             # CSV instead of aligned ASCII
//	fovbench -quick           # smaller sizes (CI-friendly)
//	fovbench -json results.json  # machine-readable results ("" disables)
//
// Alongside the human-readable output, every run writes the results as
// JSON (default BENCH_<date>.json) so regression tooling can diff runs
// without scraping ASCII tables.
//
// The mapping from paper figure to experiment is documented in DESIGN.md;
// measured outputs are recorded in EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fovr/internal/figures"
)

// benchResult is the JSON record for one table: the grid verbatim plus
// how long the experiment took to regenerate.
type benchResult struct {
	Key       string     `json:"key"`
	Title     string     `json:"title"`
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedMS float64    `json:"elapsedMillis"`
}

// benchReport is the top-level JSON document.
type benchReport struct {
	Date      string        `json:"date"`
	GoVersion string        `json:"goVersion"`
	Quick     bool          `json:"quick"`
	Results   []benchResult `json:"results"`
}

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 3, 4, 5, 6a, 6b, 6c (empty = all)")
	table := flag.String("table", "", "table to regenerate: traffic, utility, ablation (empty = all)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned ASCII")
	quick := flag.Bool("quick", false, "smaller dataset sizes")
	outdir := flag.String("outdir", "", "also write each table as <outdir>/<key>.csv")
	jsonOut := flag.String("json", "BENCH_"+time.Now().Format("2006-01-02")+".json",
		"write machine-readable results to this file (empty disables)")
	flag.Parse()

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "fovbench:", err)
			os.Exit(1)
		}
	}

	sizes := []int{1000, 2000, 5000, 10000, 20000, 50000}
	queries := 200
	frames := 120
	if *quick {
		sizes = []int{1000, 5000, 20000}
		queries = 50
		frames = 30
	}

	type job struct {
		key string
		run func() *figures.Table
	}
	jobs := []job{
		{"3", figures.Fig3},
		{"4", figures.Fig4},
		{"5", figures.Fig5},
		{"6a", func() *figures.Table { return figures.Fig6a(frames) }},
		{"6b", func() *figures.Table { return figures.Fig6b(sizes) }},
		{"6c", func() *figures.Table { return figures.Fig6c(sizes, queries) }},
		{"traffic", figures.TableTraffic},
		{"utility", figures.TableUtility},
		{"baseline-geotree", func() *figures.Table { return figures.TableBaselineGeoTree(60) }},
		{"baseline-content", func() *figures.Table { return figures.TableBaselineContent(30, 300) }},
		{"clockskew", func() *figures.Table { return figures.TableClockSkew(10000, queries) }},
		{"scale", func() *figures.Table {
			steps := []int{50, 200, 500, 1000}
			if *quick {
				steps = []int{50, 200}
			}
			return figures.TableSystemScale(steps)
		}},
		{"ablation", func() *figures.Table { return figures.TableAblationIndex(sizes[len(sizes)-1], queries) }},
		{"ablation-threshold", figures.TableAblationThreshold},
		{"ablation-orientation", func() *figures.Table { return figures.TableAblationOrientation(10000, queries) }},
		{"ablation-abstraction", figures.TableAblationAbstraction},
		{"ablation-measurement", func() *figures.Table { return figures.TableMeasurements(2000) }},
		{"ablation-noise", figures.TableAblationNoise},
		{"heterogeneous", func() *figures.Table { return figures.TableHeterogeneous(60) }},
		{"wal-ingest", func() *figures.Table {
			n := 20000
			if *quick {
				n = 5000
			}
			return figures.TableWALIngest(n)
		}},
		{"replica-lag", func() *figures.Table {
			n := 20000
			if *quick {
				n = 5000
			}
			return figures.TableReplicaLag(n)
		}},
	}

	selected := func(j job) bool {
		if *fig == "" && *table == "" {
			return true
		}
		if *fig != "" && j.key == *fig {
			return true
		}
		if *table != "" && (j.key == *table || (len(j.key) > len(*table) && j.key[:len(*table)] == *table)) {
			return true
		}
		return false
	}

	report := benchReport{
		Date:      time.Now().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Quick:     *quick,
	}
	for _, j := range jobs {
		if !selected(j) {
			continue
		}
		start := time.Now()
		tab := j.run()
		elapsed := time.Since(start)
		if *csv {
			fmt.Print(tab.CSV())
		} else {
			fmt.Print(tab.String())
		}
		if *outdir != "" {
			path := filepath.Join(*outdir, strings.ReplaceAll(j.key, "/", "-")+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "fovbench:", err)
				os.Exit(1)
			}
		}
		report.Results = append(report.Results, benchResult{
			Key:       j.key,
			Title:     tab.Title,
			Columns:   tab.Columns,
			Rows:      tab.Rows,
			Notes:     tab.Notes,
			ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		})
		fmt.Printf("(regenerated in %v)\n\n", elapsed.Round(time.Millisecond))
	}
	if len(report.Results) == 0 {
		fmt.Fprintf(os.Stderr, "fovbench: nothing matched -fig %q -table %q\n", *fig, *table)
		os.Exit(2)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "fovbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fovbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d results to %s\n", len(report.Results), *jsonOut)
	}
	// With an output directory and Fig. 5 in scope, also materialize the
	// similarity rectangles as images (the paper's heatmaps).
	if *outdir != "" && (*fig == "" || *fig == "5") && *table == "" {
		names, err := figures.WriteFig5Images(*outdir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fovbench: fig5 images:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d Fig. 5 images to %s: %s\n", len(names), *outdir, strings.Join(names, " "))
	}
}
