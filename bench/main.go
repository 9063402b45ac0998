// Command bench is the repository's end-to-end benchmark. It stands the
// real server and cluster handlers up on loopback listeners inside this
// process, drives them with a two-connection load generator, checks
// sampled answers against a linear-scan oracle, and prints every metric
// by name. See README.md in this directory for what each number means.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// hardDeadline ends the process whatever state it is in, below the 180 s
// the driver allows one run.
const hardDeadline = 170 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run; empty runs all four, untraced then traced")
		seed     = flag.Int64("seed", 1, "seed of the generated corpus and requests")
		seconds  = flag.Float64("seconds", 12, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer measurement in place of the untraced end-to-end one")
		smoke    = flag.Bool("smoke", false, "small corpus and short windows")
		outdir   = flag.String("outdir", filepath.Join("bench", "out"), "directory for trace, attribution and temp files")
		jsonOut  = flag.String("json", "", "append each result as one JSON line to this file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		agree    = flag.Bool("agree", false, "like -compare, for two result sets of the same commit")
	)
	flag.Parse()

	if *compare || *agree {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare and -agree take two result files")
			return 2
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}

	tmp := filepath.Join(*outdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fail(err)
	}
	// Whatever happens below, the temp dirs go and the process ends.
	defer os.RemoveAll(tmp)
	deadline := hardDeadline
	if *workload == "" {
		deadline *= time.Duration(2 * len(workloads))
	}
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintln(os.Stderr, "bench: hard deadline reached")
		os.RemoveAll(tmp)
		os.Exit(3)
	})
	defer watchdog.Stop()

	// SIGINT/SIGTERM cancel the context; every loop watches it and the
	// run unwinds through its closers before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := runOpts{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		sz:      fullSizes,
		traced:  *trace != 0,
		outdir:  *outdir,
		tmp:     tmp,
		minTail: 1000,
	}
	if *smoke {
		o.sz, o.minTail = smokeSizes, 100
	}

	if *workload == "" {
		results, ok, err := runAll(ctx, o, os.Stdout)
		if err != nil {
			return fail(err)
		}
		if err := appendResults(*jsonOut, results); err != nil {
			return fail(err)
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "bench: an answer differed from the oracle, a request failed, or recovery lost entries")
			return 1
		}
		return 0
	}

	w := findWorkload(*workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	res, err := runWorkload(ctx, w, o)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "bench: interrupted")
			return 130
		}
		return fail(err)
	}
	res.print(os.Stderr)
	if err := appendResults(*jsonOut, []*result{res}); err != nil {
		return fail(err)
	}
	line, err := res.driverLine()
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	return 0
}

// fail reports an error that ended the command and returns its exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// appendResults adds results to a JSON-lines file.
func appendResults(path string, results []*result) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
