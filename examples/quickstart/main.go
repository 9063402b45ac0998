// Quickstart: the whole content-free retrieval pipeline in one file.
//
// A provider walks down a street recording video; only the sensor stream
// (t, position, azimuth) is processed — never a pixel. The stream is
// segmented in real time (Algorithm 1), each segment is abstracted into
// one representative FoV (Eq. 11), the representatives are indexed in the
// 3-D R-tree, and an inquirer retrieves the segments that covered a spot
// on the street during the capture window.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"fovr/internal/client"
	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/query"
	"fovr/internal/segment"
	"fovr/internal/server"
	"fovr/internal/trace"
)

func main() {
	// The cloud, in process: the index and the ranker behind the HTTP API.
	srv, err := server.New(server.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Capture: 60 s of walking north filming ahead, 10 Hz sensors,
	// segmented on the device and registered as one upload.
	samples, err := trace.WalkAhead(trace.DefaultConfig)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := client.NewCaptureSession("alice", segment.Config{Camera: fov.DefaultCamera, Threshold: 0.5})
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
	fmt.Printf("alice recorded %d frames -> %d video segments indexed\n", len(samples), len(ids))

	// 2. Query: who filmed the spot 80 m up the street during that minute?
	target := geo.Offset(trace.ScenarioOrigin, 0, 80)
	hits, err := srv.Query(query.Query{
		StartMillis:  0,
		EndMillis:    60_000,
		Center:       target,
		RadiusMeters: query.Residential.EmpiricalRadius(),
	}, 5)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query %v (r=%.0f m): %d matching segments\n",
		target, query.Residential.EmpiricalRadius(), len(hits))
	for i, h := range hits {
		fmt.Printf("%2d. segment %d by %s — camera %.1f m away facing %.0f°, recorded t=[%d ms, %d ms]\n",
			i+1, h.Entry.ID, h.Entry.Provider, h.DistanceMeters,
			h.Entry.Rep.FoV.Theta, h.Entry.Rep.StartMillis, h.Entry.Rep.EndMillis)
	}
}
