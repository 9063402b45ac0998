// Command fovsim generates reproducible simulation artifacts: capture
// traces (sensor sample streams) and citywide representative-FoV
// datasets, as JSON on stdout or to a file. It is the data-prep tool for
// experiments that want fixed inputs across runs.
//
// Usage:
//
//	fovsim trace -scenario bike -hz 10 -noise -seed 7 > trace.json
//	fovsim dataset -n 20000 -distribution hotspot -seed 1 > city.json
//	fovsim queries -n 200 -radius 50 -window 3600000 > queries.json
//	fovsim frame -east 10 -north 5 -az 45 -res 480p -out pose.pgm
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"fovr/internal/render"
	"fovr/internal/trace"
	"fovr/internal/video"
	"fovr/internal/workload"
	"fovr/internal/world"
)

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	var err error
	switch args[0] {
	case "trace":
		err = runTrace(args[1:])
	case "dataset":
		err = runDataset(args[1:])
	case "queries":
		err = runQueries(args[1:])
	case "frame":
		err = runFrame(args[1:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fovsim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fovsim <trace|dataset|queries|frame> [flags]
  trace   -scenario walk|walk-side|rotate|drive|bike [-hz 10] [-noise] [-seed 1]
  dataset -n 20000 [-distribution uniform|hotspot] [-seed 1]
  queries -n 200 [-radius 50] [-window 3600000] [-seed 1]
  frame   -east E -north N -az DEG [-res 480p] [-seed 1] [-out pose.pgm]`)
	os.Exit(2)
}

func emit(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	scenario := fs.String("scenario", "walk", "mobility scenario")
	hz := fs.Float64("hz", 10, "sample rate")
	noise := fs.Bool("noise", false, "apply default sensor noise")
	seed := fs.Int64("seed", 1, "noise seed")
	_ = fs.Parse(args)

	samples, err := trace.Scenario(*scenario, trace.Config{SampleHz: *hz})
	if err != nil {
		return err
	}
	if *noise {
		samples = trace.DefaultNoise.Apply(rand.New(rand.NewSource(*seed)), samples)
	}
	return emit(samples)
}

func runDataset(args []string) error {
	fs := flag.NewFlagSet("dataset", flag.ExitOnError)
	n := fs.Int("n", 20000, "number of representative FoVs")
	dist := fs.String("distribution", "uniform", "uniform|hotspot")
	seed := fs.Int64("seed", 1, "seed")
	_ = fs.Parse(args)

	cfg := workload.Config{Seed: *seed}
	switch *dist {
	case "uniform":
		cfg.Distribution = workload.Uniform
	case "hotspot":
		cfg.Distribution = workload.Hotspot
	default:
		return fmt.Errorf("unknown distribution %q", *dist)
	}
	return emit(workload.Entries(cfg, *n))
}

func runQueries(args []string) error {
	fs := flag.NewFlagSet("queries", flag.ExitOnError)
	n := fs.Int("n", 200, "number of queries")
	radius := fs.Float64("radius", 50, "query radius meters")
	window := fs.Int64("window", 3_600_000, "time window millis")
	seed := fs.Int64("seed", 1, "seed")
	_ = fs.Parse(args)
	return emit(workload.Queries(workload.Config{Seed: *seed}, *n, *radius, *window))
}

func runFrame(args []string) error {
	fs := flag.NewFlagSet("frame", flag.ExitOnError)
	east := fs.Float64("east", 0, "camera east offset in meters")
	north := fs.Float64("north", 0, "camera north offset in meters")
	az := fs.Float64("az", 0, "camera azimuth in degrees")
	resName := fs.String("res", "480p", "resolution: 240p|360p|480p|720p|1080p")
	seed := fs.Uint64("seed", 1, "world seed")
	out := fs.String("out", "pose.pgm", "output PGM file")
	_ = fs.Parse(args)

	var res video.Resolution
	found := false
	for _, r := range video.Resolutions {
		if r.Name == *resName {
			res, found = r, true
			break
		}
	}
	if !found {
		return fmt.Errorf("unknown resolution %q", *resName)
	}
	f := res.New()
	render.New(world.World{Seed: *seed}, render.DefaultCamera).
		Render(render.Pose{East: *east, North: *north, AzimuthDeg: *az}, f)
	if err := f.SavePGM(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%s, %d bytes of pixels)\n", *out, res.Name, f.SizeBytes())
	return nil
}
