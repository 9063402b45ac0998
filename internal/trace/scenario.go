package trace

import (
	"fmt"

	"fovr/internal/fov"
	"fovr/internal/geo"
)

// This file scripts the exact capture scenarios of the paper's
// evaluation (Section VI-B), so the figure-regeneration benchmarks and
// the examples can reference them by name.

// ScenarioOrigin anchors all scripted scenarios (the Tsinghua campus,
// roughly, matching the authors' environment).
var ScenarioOrigin = geo.Point{Lat: 40.0, Lng: 116.326}

// Scenario runs the scripted capture named walk, walk-side, rotate, drive
// or bike (the names fovctl capture and fovsim trace take).
func Scenario(name string, cfg Config) ([]fov.Sample, error) {
	run, ok := map[string]func(Config) ([]fov.Sample, error){
		"walk":      WalkAhead,
		"walk-side": WalkSideways,
		"rotate":    Rotation,
		"drive":     DriveStraight,
		"bike":      BikeWithTurn,
	}[name]
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", name)
	}
	return run(cfg)
}

// WalkAhead is the Fig. 4 theta_p = 0 experiment: walking down the
// street filming straight ahead, 60 s at 1.4 m/s.
func WalkAhead(cfg Config) ([]fov.Sample, error) {
	return Straight(cfg, ScenarioOrigin, 0, 0, 1.4, 60)
}

// WalkSideways is the Fig. 4 theta_p = 90 experiment: walking the same
// street filming sideways.
func WalkSideways(cfg Config) ([]fov.Sample, error) {
	return Straight(cfg, ScenarioOrigin, 0, 90, 1.4, 60)
}

// Rotation is the Fig. 5(a) experiment: holding position and panning a
// full turn at 6 degrees per second.
func Rotation(cfg Config) ([]fov.Sample, error) {
	return RotateInPlace(cfg, ScenarioOrigin, 0, 6, 60)
}

// DriveStraight is the Fig. 5(b) experiment: driving down the street at
// 12 m/s filming the view in front of the car (R = 100 m in the paper).
func DriveStraight(cfg Config) ([]fov.Sample, error) {
	return Straight(cfg, ScenarioOrigin, 0, 0, 12, 30)
}

// BikeWithTurn is the Fig. 5(c) experiment: riding through a residential
// area and turning right halfway, which splits the similarity matrix
// into the four-block pattern the paper shows.
func BikeWithTurn(cfg Config) ([]fov.Sample, error) {
	mid := geo.Offset(ScenarioOrigin, 0, 150) // ride 150 m north
	end := geo.Offset(mid, 90, 150)           // then 150 m east
	return Waypoints(cfg, []geo.Point{ScenarioOrigin, mid, end}, 5)
}
