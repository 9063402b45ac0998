package fov

import (
	"math"
	"testing"

	"fovr/internal/geo"
)

var testCam = Camera{HalfAngleDeg: 30, RadiusMeters: 100}

func TestCameraValidate(t *testing.T) {
	cases := []struct {
		name string
		c    Camera
		ok   bool
	}{
		{"default", DefaultCamera, true},
		{"typical", testCam, true},
		{"zero angle", Camera{0, 100}, false},
		{"right angle", Camera{90, 100}, false},
		{"negative angle", Camera{-10, 100}, false},
		{"zero radius", Camera{30, 0}, false},
		{"negative radius", Camera{30, -5}, false},
		{"inf radius", Camera{30, math.Inf(1)}, false},
		{"nan angle", Camera{math.NaN(), 100}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.c.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate() err=%v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestCameraViewingAngle(t *testing.T) {
	if got := testCam.ViewingAngleDeg(); got != 60 {
		t.Fatalf("ViewingAngleDeg = %v, want 60", got)
	}
}

func TestFoVNormalize(t *testing.T) {
	f := FoV{P: geo.Point{Lat: 40, Lng: 116}, Theta: 450}
	if got := f.Normalize().Theta; got != 90 {
		t.Fatalf("Normalize Theta = %v, want 90", got)
	}
	f.Theta = -90
	if got := f.Normalize().Theta; got != 270 {
		t.Fatalf("Normalize Theta = %v, want 270", got)
	}
}

func TestFoVValidate(t *testing.T) {
	good := FoV{P: geo.Point{Lat: 40, Lng: 116}, Theta: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid FoV rejected: %v", err)
	}
	bad := []FoV{
		{P: geo.Point{Lat: 91, Lng: 0}},
		{P: geo.Point{Lat: 0, Lng: 181}},
		{P: geo.Point{Lat: 0, Lng: 0}, Theta: math.NaN()},
		{P: geo.Point{Lat: 0, Lng: 0}, Theta: math.Inf(1)},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: invalid FoV %v accepted", i, f)
		}
	}
}

func TestSampleValidate(t *testing.T) {
	s := Sample{UnixMillis: 1000, P: geo.Point{Lat: 40, Lng: 116}, Theta: 5}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid sample rejected: %v", err)
	}
	s.UnixMillis = -1
	if err := s.Validate(); err == nil {
		t.Fatal("negative timestamp accepted")
	}
}

func TestDeltaOf(t *testing.T) {
	p := geo.Point{Lat: 40, Lng: 116}
	f1 := FoV{P: p, Theta: 0}
	f2 := FoV{P: geo.Offset(p, 90, 50), Theta: 350}
	d := DeltaOf(f1, f2)
	if math.Abs(d.DistMeters-50) > 0.1 {
		t.Errorf("DistMeters = %v, want ~50", d.DistMeters)
	}
	if geo.AngleDiff(d.DirectionDeg, 90) > 0.1 {
		t.Errorf("DirectionDeg = %v, want ~90", d.DirectionDeg)
	}
	if math.Abs(d.RotationDeg-10) > 1e-9 {
		t.Errorf("RotationDeg = %v, want 10", d.RotationDeg)
	}
}

func TestSimRBoundaries(t *testing.T) {
	cases := []struct {
		dt, want float64
	}{
		{0, 1},
		{30, 0.5},  // half the viewing angle gone
		{60, 0},    // full viewing angle: sectors just separate
		{90, 0},    // beyond
		{180, 0},   // opposite
		{15, 0.75}, // linear in between
		{-30, 0.5}, // sign-insensitive
		{330, 0.5}, // wraps: 330 == -30
	}
	for _, c := range cases {
		if got := SimR(testCam, c.dt); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("SimR(%v) = %v, want %v", c.dt, got, c.want)
		}
	}
}

func TestSimRLinearDecrease(t *testing.T) {
	prev := SimR(testCam, 0)
	for dt := 1.0; dt <= 60; dt++ {
		cur := SimR(testCam, dt)
		if cur >= prev {
			t.Fatalf("SimR not strictly decreasing at dt=%v: %v >= %v", dt, cur, prev)
		}
		prev = cur
	}
}

func TestSimParallelBoundaries(t *testing.T) {
	if got := SimParallel(testCam, 0); got != 1 {
		t.Fatalf("SimParallel(0) = %v, want 1", got)
	}
	// Always strictly positive, even at extreme distances (Section III-A
	// statement 2).
	for _, d := range []float64{1, 10, 100, 1000, 1e6} {
		if got := SimParallel(testCam, d); got <= 0 || got >= 1 {
			t.Errorf("SimParallel(%v) = %v, want in (0, 1)", d, got)
		}
	}
}

func TestSimPerpBoundaries(t *testing.T) {
	if got := SimPerp(testCam, 0); got != 1 {
		t.Fatalf("SimPerp(0) = %v, want 1", got)
	}
	zero := PerpZeroDistance(testCam) // 2 * 100 * sin(30°) = 100 m
	if math.Abs(zero-100) > 1e-9 {
		t.Fatalf("PerpZeroDistance = %v, want 100", zero)
	}
	if got := SimPerp(testCam, zero); got != 0 {
		t.Errorf("SimPerp at zero distance = %v, want 0", got)
	}
	if got := SimPerp(testCam, zero+1); got != 0 {
		t.Errorf("SimPerp beyond zero distance = %v, want 0", got)
	}
	if got := SimPerp(testCam, zero-1); got <= 0 {
		t.Errorf("SimPerp just inside zero distance = %v, want > 0", got)
	}
}

func TestEq8ParallelDominatesPerp(t *testing.T) {
	// Sim_parallel >= Sim_perp for every distance, equality iff d = 0.
	for _, r := range []float64{20, 50, 100, 500} {
		c := Camera{HalfAngleDeg: 30, RadiusMeters: r}
		if SimParallel(c, 0) != SimPerp(c, 0) {
			t.Fatalf("R=%v: equality at d=0 violated", r)
		}
		for d := 0.5; d < 4*r; d += 0.5 {
			sp, sv := SimParallel(c, d), SimPerp(c, d)
			if sp <= sv {
				t.Fatalf("R=%v d=%v: SimParallel %v <= SimPerp %v", r, d, sp, sv)
			}
		}
	}
}

func TestTranslationMonotoneDecreasing(t *testing.T) {
	for _, f := range []func(Camera, float64) float64{SimParallel, SimPerp} {
		prev := f(testCam, 0)
		for d := 1.0; d <= 300; d++ {
			cur := f(testCam, d)
			if cur > prev+1e-12 {
				t.Fatalf("similarity increased at d=%v: %v > %v", d, cur, prev)
			}
			prev = cur
		}
	}
}

func TestSimTDirBlending(t *testing.T) {
	d := 40.0
	sp := SimParallel(testCam, d)
	sv := SimPerp(testCam, d)
	if got := SimTDir(testCam, d, 0); math.Abs(got-sp) > 1e-12 {
		t.Errorf("SimTDir(0°) = %v, want SimParallel %v", got, sp)
	}
	if got := SimTDir(testCam, d, 90); math.Abs(got-sv) > 1e-12 {
		t.Errorf("SimTDir(90°) = %v, want SimPerp %v", got, sv)
	}
	mid := SimTDir(testCam, d, 45)
	if want := (sp + sv) / 2; math.Abs(mid-want) > 1e-12 {
		t.Errorf("SimTDir(45°) = %v, want midpoint %v", mid, want)
	}
	// Folding: backward (180°) behaves like forward, 135° like 45°,
	// 270° like 90°.
	if a, b := SimTDir(testCam, d, 180), SimTDir(testCam, d, 0); math.Abs(a-b) > 1e-12 {
		t.Errorf("SimTDir(180°)=%v != SimTDir(0°)=%v", a, b)
	}
	if a, b := SimTDir(testCam, d, 135), SimTDir(testCam, d, 45); math.Abs(a-b) > 1e-12 {
		t.Errorf("SimTDir(135°)=%v != SimTDir(45°)=%v", a, b)
	}
	if a, b := SimTDir(testCam, d, 270), SimTDir(testCam, d, 90); math.Abs(a-b) > 1e-12 {
		t.Errorf("SimTDir(270°)=%v != SimTDir(90°)=%v", a, b)
	}
}

func TestSimIdentity(t *testing.T) {
	f := FoV{P: geo.Point{Lat: 40, Lng: 116.3}, Theta: 123}
	if got := Sim(testCam, f, f); got != 1 {
		t.Fatalf("Sim(f, f) = %v, want 1", got)
	}
}

func TestSimBounds(t *testing.T) {
	base := geo.Point{Lat: 40, Lng: 116.3}
	f1 := FoV{P: base, Theta: 0}
	for dist := 0.0; dist <= 250; dist += 10 {
		for dir := 0.0; dir < 360; dir += 30 {
			for th := 0.0; th < 360; th += 30 {
				f2 := FoV{P: geo.Offset(base, dir, dist), Theta: th}
				s := Sim(testCam, f1, f2)
				if s < 0 || s > 1 || math.IsNaN(s) {
					t.Fatalf("Sim out of [0,1]: %v for dist=%v dir=%v theta=%v", s, dist, dir, th)
				}
				if s == 1 && (dist != 0 || th != 0) {
					t.Fatalf("Sim = 1 for non-identical FoVs dist=%v dir=%v theta=%v", dist, dir, th)
				}
			}
		}
	}
}

func TestSimUniquenessOfMaximum(t *testing.T) {
	// Eq. (3): Sim = 1 iff delta_p = 0 and delta_theta = 0. Any strictly
	// positive perturbation must reduce similarity.
	f1 := FoV{P: geo.Point{Lat: 40, Lng: 116.3}, Theta: 45}
	perturbed := []FoV{
		{P: geo.Offset(f1.P, 0, 0.5), Theta: 45},
		{P: f1.P, Theta: 45.5},
		{P: geo.Offset(f1.P, 200, 1), Theta: 44},
	}
	for i, f2 := range perturbed {
		if s := Sim(testCam, f1, f2); s >= 1 {
			t.Errorf("case %d: Sim = %v >= 1 for perturbed pair", i, s)
		}
	}
}

func TestSimRotationOnly(t *testing.T) {
	// With no translation, Sim reduces to SimR exactly.
	p := geo.Point{Lat: 40, Lng: 116.3}
	for dt := 0.0; dt <= 90; dt += 5 {
		f1 := FoV{P: p, Theta: 10}
		f2 := FoV{P: p, Theta: 10 + dt}
		if got, want := Sim(testCam, f1, f2), SimR(testCam, dt); math.Abs(got-want) > 1e-12 {
			t.Fatalf("rotation-only Sim(%v) = %v, want %v", dt, got, want)
		}
	}
}

func TestSimOppositeOrientationIsZero(t *testing.T) {
	p := geo.Point{Lat: 40, Lng: 116.3}
	f1 := FoV{P: p, Theta: 0}
	f2 := FoV{P: geo.Offset(p, 90, 10), Theta: 180}
	if got := Sim(testCam, f1, f2); got != 0 {
		t.Fatalf("Sim for back-to-back cameras = %v, want 0", got)
	}
}

func TestSimDeltaMatchesSim(t *testing.T) {
	base := geo.Point{Lat: 40, Lng: 116.3}
	f1 := FoV{P: base, Theta: 30}
	for dist := 0.0; dist <= 120; dist += 15 {
		for dir := 0.0; dir < 360; dir += 45 {
			for rot := 0.0; rot <= 60; rot += 15 {
				f2 := FoV{P: geo.Offset(base, dir, dist), Theta: 30 + rot}
				want := Sim(testCam, f1, f2)
				got := SimDelta(testCam, rot, dist, geo.AngleDiff(dir, f1.Theta))
				if math.Abs(got-want) > 1e-6 {
					t.Fatalf("SimDelta mismatch at dist=%v dir=%v rot=%v: %v vs %v",
						dist, dir, rot, got, want)
				}
			}
		}
	}
}

func TestCovers(t *testing.T) {
	p := geo.Point{Lat: 40, Lng: 116.3}
	f := FoV{P: p, Theta: 0} // facing north
	cases := []struct {
		name string
		q    geo.Point
		want bool
	}{
		{"own position", p, true},
		{"dead ahead in range", geo.Offset(p, 0, 50), true},
		{"dead ahead out of range", geo.Offset(p, 0, 150), false},
		{"edge of sector ccw", geo.Offset(p, -29, 50), true},
		{"edge of sector cw", geo.Offset(p, 29, 50), true},
		{"outside sector", geo.Offset(p, 45, 50), false},
		{"behind", geo.Offset(p, 180, 10), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := f.CoversCircle(testCam, c.q, 0); got != c.want {
				t.Fatalf("CoversCircle(%v, 0) = %v, want %v", c.q, got, c.want)
			}
		})
	}
}

func TestCoversCircle(t *testing.T) {
	p := geo.Point{Lat: 40, Lng: 116.3}
	f := FoV{P: p, Theta: 0}
	// A point just outside the sector angularly, but whose 20 m circle
	// pokes into the sector.
	q := geo.Offset(p, 40, 50)
	if f.CoversCircle(testCam, q, 0) {
		t.Fatal("test fixture broken: point should be outside the strict sector")
	}
	if !f.CoversCircle(testCam, q, 20) {
		t.Fatal("CoversCircle should accept a circle that intersects the sector")
	}
	// Camera inside the query circle always counts.
	if !f.CoversCircle(testCam, geo.Offset(p, 180, 5), 10) {
		t.Fatal("camera inside query circle must count as covering")
	}
	// Far beyond radius + circle never counts.
	if f.CoversCircle(testCam, geo.Offset(p, 0, 200), 20) {
		t.Fatal("point beyond R + r must not be covered")
	}
}

func TestMatrixSymmetricUnitDiagonal(t *testing.T) {
	base := geo.Point{Lat: 40, Lng: 116.3}
	fs := make([]FoV, 12)
	for i := range fs {
		fs[i] = FoV{P: geo.Offset(base, 90, float64(i)*8), Theta: float64(i) * 7}
	}
	m := Matrix(testCam, fs)
	for i := range m {
		if m[i][i] != 1 {
			t.Fatalf("diagonal m[%d][%d] = %v, want 1", i, i, m[i][i])
		}
		for j := range m[i] {
			if m[i][j] != m[j][i] {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
			if m[i][j] < 0 || m[i][j] > 1 {
				t.Fatalf("matrix entry out of range at (%d,%d): %v", i, j, m[i][j])
			}
		}
	}
}

func TestSimApproxSymmetric(t *testing.T) {
	// Sim is symmetric up to the equirectangular approximation and the
	// direction fold; check numerically over a spread of poses.
	base := geo.Point{Lat: 40, Lng: 116.3}
	for dist := 5.0; dist <= 100; dist += 19 {
		for dir := 0.0; dir < 360; dir += 37 {
			for rot := 0.0; rot <= 50; rot += 11 {
				f1 := FoV{P: base, Theta: 20}
				f2 := FoV{P: geo.Offset(base, dir, dist), Theta: 20 + rot}
				s12 := Sim(testCam, f1, f2)
				s21 := Sim(testCam, f2, f1)
				if math.Abs(s12-s21) > 0.12 {
					t.Fatalf("asymmetry too large at dist=%v dir=%v rot=%v: %v vs %v",
						dist, dir, rot, s12, s21)
				}
			}
		}
	}
}

func TestMatrixParallelMatchesSequential(t *testing.T) {
	base := geo.Point{Lat: 40, Lng: 116.3}
	fs := make([]FoV, 19)
	for i := range fs {
		fs[i] = FoV{P: geo.Offset(base, float64(i*37), float64(i)*9), Theta: float64(i * 23)}
	}
	want := Matrix(testCam, fs)
	for _, workers := range []int{0, 1, 4, 32} {
		got := MatrixParallel(testCam, fs, workers)
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d: (%d,%d) %v vs %v", workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	if MatrixParallel(testCam, nil, 4) != nil {
		t.Fatal("empty input produced a matrix")
	}
}
