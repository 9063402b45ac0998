package trace

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fovr/internal/fov"
	"fovr/internal/geo"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []Config{
		{SampleHz: 0},
		{SampleHz: -5},
		{SampleHz: math.Inf(1)},
		{SampleHz: 10, StartMillis: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRotateInPlace(t *testing.T) {
	p := geo.Point{Lat: 40, Lng: 116.3}
	samples, err := RotateInPlace(Config{SampleHz: 2}, p, 10, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 21 { // 10 s at 2 Hz inclusive
		t.Fatalf("got %d samples, want 21", len(samples))
	}
	for i, s := range samples {
		if s.P != p {
			t.Fatal("rotation moved the camera")
		}
		wantTheta := geo.NormalizeDeg(10 + 6*float64(i)/2)
		if geo.AngleDiff(s.Theta, wantTheta) > 1e-9 {
			t.Fatalf("sample %d theta = %v, want %v", i, s.Theta, wantTheta)
		}
		if s.UnixMillis != int64(i)*500 {
			t.Fatalf("sample %d time = %d, want %d", i, s.UnixMillis, int64(i)*500)
		}
	}
}

func TestRotationWrapsPast360(t *testing.T) {
	p := geo.Point{Lat: 40, Lng: 116.3}
	samples, err := RotateInPlace(Config{SampleHz: 1}, p, 350, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{350, 10, 30}
	for i, s := range samples {
		if geo.AngleDiff(s.Theta, want[i]) > 1e-9 {
			t.Fatalf("sample %d theta = %v, want %v", i, s.Theta, want[i])
		}
	}
}

func TestStraightMotion(t *testing.T) {
	start := geo.Point{Lat: 40, Lng: 116.3}
	samples, err := Straight(Config{SampleHz: 1}, start, 90, 0, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 11 {
		t.Fatalf("got %d samples", len(samples))
	}
	// Last sample is 20 m east of start.
	d := geo.Distance(start, samples[10].P)
	if math.Abs(d-20) > 0.1 {
		t.Fatalf("traveled %v m, want 20", d)
	}
	if geo.AngleDiff(geo.Bearing(start, samples[10].P), 90) > 0.1 {
		t.Fatal("did not travel east")
	}
	for _, s := range samples {
		if s.Theta != 90 {
			t.Fatal("camera offset 0 must face the heading")
		}
	}
}

func TestStraightCameraOffset(t *testing.T) {
	start := geo.Point{Lat: 40, Lng: 116.3}
	samples, err := Straight(Config{SampleHz: 1}, start, 0, 90, 1.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Theta != 90 {
			t.Fatalf("theta = %v, want 90 (heading 0 + offset 90)", s.Theta)
		}
	}
	if err := func() error {
		_, err := Straight(Config{SampleHz: 1}, start, 0, 0, -1, 5)
		return err
	}(); err == nil {
		t.Fatal("negative speed accepted")
	}
}

func TestWaypointsFollowsCorners(t *testing.T) {
	cfg := Config{SampleHz: 1}
	a := geo.Point{Lat: 40, Lng: 116.3}
	b := geo.Offset(a, 0, 50)  // 50 m north
	c := geo.Offset(b, 90, 50) // then 50 m east
	samples, err := Waypoints(cfg, []geo.Point{a, b, c}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 100 m at 5 m/s = 20 s -> 20-21 samples.
	if len(samples) < 19 || len(samples) > 22 {
		t.Fatalf("got %d samples, want ~20", len(samples))
	}
	// First half heads north (theta 0), second half east (theta 90).
	if geo.AngleDiff(samples[2].Theta, 0) > 1 {
		t.Fatalf("early heading = %v, want 0", samples[2].Theta)
	}
	last := samples[len(samples)-1]
	if geo.AngleDiff(last.Theta, 90) > 1 {
		t.Fatalf("late heading = %v, want 90", last.Theta)
	}
	// Timestamps strictly increasing.
	for i := 1; i < len(samples); i++ {
		if samples[i].UnixMillis <= samples[i-1].UnixMillis {
			t.Fatal("timestamps not increasing")
		}
	}
}

func TestWaypointsValidation(t *testing.T) {
	a := geo.Point{Lat: 40, Lng: 116.3}
	if _, err := Waypoints(Config{SampleHz: 1}, []geo.Point{a}, 5); err == nil {
		t.Fatal("single waypoint accepted")
	}
	if _, err := Waypoints(Config{SampleHz: 1}, []geo.Point{a, geo.Offset(a, 0, 10)}, 0); err == nil {
		t.Fatal("zero speed accepted")
	}
}

func TestRandomWalkDeterministic(t *testing.T) {
	start := geo.Point{Lat: 40, Lng: 116.3}
	a, err := RandomWalk(Config{SampleHz: 5}, rand.New(rand.NewSource(1)), start, 1.4, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RandomWalk(Config{SampleHz: 5}, rand.New(rand.NewSource(1)), start, 1.4, 5, 20)
	if len(a) != len(b) || len(a) != 101 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different walks")
		}
	}
	c, _ := RandomWalk(Config{SampleHz: 5}, rand.New(rand.NewSource(2)), start, 1.4, 5, 20)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical walks")
	}
}

func TestNoiseStatistics(t *testing.T) {
	start := geo.Point{Lat: 40, Lng: 116.3}
	clean, err := Straight(Config{SampleHz: 10}, start, 0, 0, 1.4, 100)
	if err != nil {
		t.Fatal(err)
	}
	n := Noise{GPSMeters: 3, CompassDeg: 4}
	noisy := n.Apply(rand.New(rand.NewSource(5)), clean)
	if len(noisy) != len(clean) {
		t.Fatal("noise changed sample count")
	}
	var sumPos, sumTheta float64
	for i := range clean {
		sumPos += geo.Distance(clean[i].P, noisy[i].P)
		sumTheta += geo.AngleDiff(clean[i].Theta, noisy[i].Theta)
	}
	meanPos := sumPos / float64(len(clean))
	meanTheta := sumTheta / float64(len(clean))
	// |N(0, s)| has mean s*sqrt(2/pi) ~ 0.8 s.
	if meanPos < 1.2 || meanPos > 3.6 {
		t.Fatalf("mean GPS displacement %v m implausible for sigma 3", meanPos)
	}
	if meanTheta < 1.6 || meanTheta > 4.8 {
		t.Fatalf("mean compass error %v deg implausible for sigma 4", meanTheta)
	}
	// Timestamps must be untouched, input unmodified.
	for i := range clean {
		if noisy[i].UnixMillis != clean[i].UnixMillis {
			t.Fatal("noise changed timestamps")
		}
	}
}

func TestNoiseZeroIsIdentity(t *testing.T) {
	clean, _ := WalkAhead(DefaultConfig)
	noisy := Noise{}.Apply(rand.New(rand.NewSource(1)), clean)
	for i := range clean {
		if noisy[i] != clean[i] {
			t.Fatal("zero noise modified samples")
		}
	}
}

func TestScenarios(t *testing.T) {
	cfg := DefaultConfig
	for _, sc := range []struct {
		name string
		run  func() (int, error)
	}{
		{"WalkAhead", func() (int, error) { s, err := WalkAhead(cfg); return len(s), err }},
		{"WalkSideways", func() (int, error) { s, err := WalkSideways(cfg); return len(s), err }},
		{"Rotation", func() (int, error) { s, err := Rotation(cfg); return len(s), err }},
		{"DriveStraight", func() (int, error) { s, err := DriveStraight(cfg); return len(s), err }},
		{"BikeWithTurn", func() (int, error) { s, err := BikeWithTurn(cfg); return len(s), err }},
	} {
		t.Run(sc.name, func(t *testing.T) {
			n, err := sc.run()
			if err != nil {
				t.Fatal(err)
			}
			if n < 10 {
				t.Fatalf("scenario produced only %d samples", n)
			}
		})
	}
}

// TestScenarioByName pins the names fovctl capture and fovsim trace
// take: each runs its scripted capture, and an unknown name is an error
// that names it.
func TestScenarioByName(t *testing.T) {
	cfg := Config{SampleHz: 2}
	for name, run := range map[string]func(Config) ([]fov.Sample, error){
		"walk": WalkAhead, "walk-side": WalkSideways, "rotate": Rotation, "drive": DriveStraight, "bike": BikeWithTurn,
	} {
		got, err := Scenario(name, cfg)
		want, werr := run(cfg)
		if err != nil || werr != nil || !slices.Equal(got, want) {
			t.Errorf("Scenario(%q): %d samples (%v), want %d (%v)", name, len(got), err, len(want), werr)
		}
	}
	if _, err := Scenario("swim", cfg); err == nil || !strings.Contains(err.Error(), `"swim"`) {
		t.Fatalf("unknown scenario: %v", err)
	}
}

func TestFoVsProjection(t *testing.T) {
	samples, _ := WalkAhead(DefaultConfig)
	fovs := FoVs(samples)
	if len(fovs) != len(samples) {
		t.Fatal("length mismatch")
	}
	for i := range fovs {
		if fovs[i] != samples[i].FoV() {
			t.Fatal("projection mismatch")
		}
	}
}
