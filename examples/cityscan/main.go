// Cityscan: the paper's motivating scenario — incident investigation over
// crowd-sourced mobile video (the Boston-marathon example from the
// introduction).
//
// A city's worth of providers has been uploading representative FoVs all
// day (20,000 segments; a few bytes each). An incident happens at a known
// place and time. Investigators ask the cloud for every video segment
// whose field of view covered the scene in the surrounding minutes —
// without anyone uploading or scanning a single frame of video. A handful
// of staged eyewitness captures near the scene are planted among the
// background crowd to show ranked retrieval pulling exactly them out.
//
//	go run ./examples/cityscan
package main

import (
	"fmt"
	"log"
	"time"

	"fovr/internal/client"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/trace"
	"fovr/internal/wire"
	"fovr/internal/workload"
)

func main() {
	// Urban sight lines: 100 m radius of view.
	cam := fov.Camera{HalfAngleDeg: 30, RadiusMeters: 100}
	srv, err := server.New(server.Config{Camera: cam})
	if err != nil {
		log.Fatal(err)
	}

	// Background crowd: a day of citywide captures.
	const crowd = 20000
	entries := workload.Entries(workload.Config{Seed: 9, Distribution: workload.Hotspot}, crowd)
	for _, e := range entries {
		if _, err := srv.Register(wire.Upload{Provider: e.Provider, Reps: []segment.Representative{e.Rep}}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("cloud index holds %d segments from the crowd\n", srv.Index().Len())

	// The incident: 14:00:00 city time at a spot near the center.
	scene := geo.Offset(workload.DefaultConfig.Center, 45, 800)
	incidentMs := int64(14 * 3600 * 1000)

	// Three eyewitnesses were recording near the scene around that time.
	witnesses := []struct {
		name    string
		bearing float64 // where they stand, relative to the scene
		dist    float64
	}{
		{"witness-north", 0, 40},
		{"witness-east", 90, 60},
		{"witness-far", 225, 85},
	}
	for _, w := range witnesses {
		pos := geo.Offset(scene, w.bearing, w.dist)
		facing := geo.Bearing(pos, scene) // camera pointed at the scene
		cfg := trace.Config{SampleHz: 10, StartMillis: incidentMs - 30_000}
		samples, err := trace.RotateInPlace(cfg, pos, facing-10, 0.33, 60)
		if err != nil {
			log.Fatal(err)
		}
		sess, err := client.NewCaptureSession(w.name, segment.Config{Camera: cam, Threshold: 0.5})
		if err != nil {
			log.Fatal(err)
		}
		if err := sess.PushAll(samples); err != nil {
			log.Fatal(err)
		}
		ids, err := srv.Register(sess.Stop())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s uploaded %d segment descriptor(s) (~%d bytes vs megabytes of video)\n",
			w.name, len(ids), len(ids)*wire.RepWireBytes)
	}

	// Investigators query: who saw the scene within ±2 minutes?
	begin := time.Now()
	hits, err := srv.Query(query.Query{
		StartMillis:  incidentMs - 120_000,
		EndMillis:    incidentMs + 120_000,
		Center:       scene,
		RadiusMeters: query.Residential.EmpiricalRadius(),
	}, 10)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(begin)

	fmt.Printf("\ninvestigation query answered in %v over %d indexed segments:\n", elapsed, srv.Index().Len())
	for i, h := range hits {
		fmt.Printf("%2d. %s — segment %d, camera %.1f m from the scene facing %.0f°\n",
			i+1, h.Entry.Provider, h.Entry.ID, h.DistanceMeters, h.Entry.Rep.FoV.Theta)
	}
	if len(hits) == 0 {
		fmt.Println("(no segments covered the scene)")
	}
	fmt.Println("\nOnly these ranked providers need to be asked for actual footage.")
}
