package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/obs"
	"fovr/internal/query"
	"fovr/internal/segment"
)

// genResults builds n results from rng. provider is used verbatim on
// every other entry (the fuzzer steers it toward escapes); odd entries
// carry their own optics; odd is planted as one distance so the fuzzer
// reaches every float form.
func genResults(rng *rand.Rand, n int, provider string, odd float64) []query.Ranked {
	out := make([]query.Ranked, n)
	for i := range out {
		e := index.Entry{
			ID:       rng.Uint64() >> uint(rng.Intn(64)),
			Provider: fmt.Sprintf("client-%d", rng.Intn(9)),
			Rep: segment.Representative{
				FoV:         fov.FoV{P: geo.Point{Lat: rng.Float64()*180 - 90, Lng: rng.Float64()*360 - 180}, Theta: rng.Float64() * 360},
				StartMillis: rng.Int63n(1 << 41),
				EndMillis:   rng.Int63n(1<<41) - 1<<20,
			},
		}
		if i%2 == 0 {
			e.Provider = provider
		} else {
			e.Camera = fov.Camera{HalfAngleDeg: float64(rng.Intn(90)), RadiusMeters: rng.ExpFloat64() * 100}
		}
		out[i] = query.Ranked{Entry: e, DistanceMeters: rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(30)-8))}
	}
	if n > 0 {
		out[rng.Intn(n)].DistanceMeters = odd
	}
	return out
}

// sameEncoding holds one Append function to json.Marshal: equal bytes,
// or an error on both sides; dst's prefix is kept.
func sameEncoding(t *testing.T, v any, appendTo func([]byte) ([]byte, error)) []byte {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, err := appendTo([]byte("prefix"))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%T: codec err %v, encoding/json err %v", v, err, wantErr)
	}
	if err != nil {
		return nil
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%T encodes differently\ncodec: %s\njson:  %s", v, got, want)
	}
	return want
}

// sameDecoding holds one Decode function to json.Unmarshal on data:
// the same documents accepted, with equal values and error texts.
func sameDecoding[T any](t *testing.T, data []byte, decode func([]byte, *T) error) {
	t.Helper()
	var got, want T
	err, wantErr := decode(data, &got), json.Unmarshal(data, &want)
	if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%T from %q: codec err %v, encoding/json err %v", got, data, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q decodes differently\ncodec: %+v\njson:  %+v", got, data, got, want)
	}
}

func checkCodec(t *testing.T, doc []byte, seed int64, n int, provider string, odd float64) {
	// Any document, through every decoder.
	sameDecoding(t, doc, DecodeQueryRequest)
	sameDecoding(t, doc, DecodeNearestRequest)
	sameDecoding(t, doc, DecodeQueryResponse)

	rng := rand.New(rand.NewSource(seed))
	results := genResults(rng, n%64, provider, odd)
	if n%7 == 3 {
		results = nil
	}
	qresp := QueryResponse{Results: results, ElapsedMicros: rng.Int63n(1e6), TraceID: provider}
	if n%5 == 1 {
		qresp.Trace = obs.NewQueryTrace(provider)
		qresp.Trace.SetQuery("center=<here> & there")
		qresp.Trace.CountDrops("orientation", 3)
	}
	nresp := NearestResponse{Results: results, ElapsedMicros: -rng.Int63n(1e6)}
	qreq := QueryRequest{
		Query: query.Query{
			StartMillis: rng.Int63() - 1<<62, EndMillis: rng.Int63(),
			Center:       geo.Point{Lat: rng.NormFloat64() * 40, Lng: odd},
			RadiusMeters: rng.ExpFloat64() * 300,
		},
		MaxResults: rng.Intn(3) * rng.Intn(1000),
	}
	nreq := NearestRequest{Center: qreq.Center, StartMillis: qreq.StartMillis, EndMillis: qreq.EndMillis, K: qreq.MaxResults}

	// What the encoder writes is what encoding/json writes, and reads
	// back equal through the decoder (and through encoding/json).
	if data := sameEncoding(t, qresp, func(b []byte) ([]byte, error) { return AppendQueryResponse(b, &qresp) }); data != nil {
		sameDecoding(t, data, DecodeQueryResponse)
	}
	if data := sameEncoding(t, nresp, func(b []byte) ([]byte, error) { return AppendNearestResponse(b, &nresp) }); data != nil {
		var back QueryResponse // the router reads both answers as this
		want := QueryResponse{Results: nresp.Results, ElapsedMicros: nresp.ElapsedMicros}
		if err := DecodeQueryResponse(data, &back); err != nil || (utf8.ValidString(provider) && !reflect.DeepEqual(back, want)) {
			t.Fatalf("round trip: %v\nsent %+v\ngot  %+v", err, want, back)
		}
	}
	if data := sameEncoding(t, qreq, func(b []byte) ([]byte, error) { return AppendQueryRequest(b, &qreq) }); data != nil {
		sameDecoding(t, data, DecodeQueryRequest)
	}
	if data := sameEncoding(t, nreq, func(b []byte) ([]byte, error) { return AppendNearestRequest(b, &nreq) }); data != nil {
		sameDecoding(t, data, DecodeNearestRequest)
	}
}

// codecSeeds are documents on and just off the decoder's grammar, each
// with generator parameters for the encoding half.
var codecSeeds = []struct {
	doc      string
	n        int
	provider string
	odd      float64
}{
	{`{"startMillis":0,"endMillis":600000,"center":{"lat":40.0013,"lng":116.326},"radiusMeters":100,"maxResults":3}`, 20, "bob", 12.5},
	{`{"center":{"lat":-33.9,"lng":151.2},"startMillis":-5,"endMillis":9223372036854775807,"k":10}`, 0, "", 0},
	{`{"results":[],"elapsedMicros":12,"traceID":"q1"}`, 3, "a<b>&c", 1e21},
	{`{"results":[{"entry":{"id":281474976710657,"provider":"client-3","rep":{"fov":{"p":{"lat":40.01,"lng":116.3},"theta":359.5},"startMillis":1000,"endMillis":2500},"camera":{"halfAngleDeg":0,"radiusMeters":0}},"distanceMeters":1e-7}],"elapsedMicros":7}`, 21, "quo\"te\\", 1e-7},
	{" {\n\t\"results\" : [ ] , \"elapsedMicros\" : 1 }\r\n", 5, "tab\there", math.Copysign(0, -1)},
	{`{"results":null,"elapsedMicros":1}`, 10, "snow☃man", 123456789012345680000},
	{`{"results":[],"results":[],"elapsedMicros":1}`, 6, "\xff\xfe", 5e-324},
	{`{"Results":[],"ELAPSEDMICROS":4,"traceid":"x"}`, 1, "line sep", math.MaxFloat64},
	{`{"startMillis":1.0,"endMillis":2}`, 2, "x", math.NaN()},
	{`{"startMillis":1e3}`, 2, "x", math.Inf(-1)},
	{`{"startMillis":9223372036854775808}`, 4, "del\x7f", 0.000001},
	{`{"startMillis":01}`, 4, "", 100},
	{`{"k":1,}`, 8, "p", 1},
	{`{"center":{"lat":1,"lng":2,"alt":3}}`, 8, "p", 1},
	{`{"center":null,"k":null}`, 8, "p", 1},
	{`{"radiusMeters":1e999}`, 8, "p", 1},
	{`{"radiusMeters":-.5}`, 8, "p", 1},
	{`{"traceID":"escAped","results":[]}`, 8, "p", 1},
	{`{"results":[{"entry":{"id":-1}}]}`, 8, "p", 1},
	{`{"results":[{"entry":{"id":18446744073709551615,"provider":"<&>"}},]}`, 8, "p", 1},
	{`{"results":[],"trace":{"id":"q9","nodesVisited":4}}`, 8, "p", 1},
	{`{"maxResults":3} trailing`, 8, "p", 1},
	{`[1,2]`, 8, "p", 1},
	{``, 8, "p", 1},
}

func TestReadCodecSeeds(t *testing.T) {
	for i, s := range codecSeeds {
		checkCodec(t, []byte(s.doc), int64(i), s.n, s.provider, s.odd)
	}
}

// FuzzReadCodec holds the codec to encoding/json in both directions:
// arbitrary documents through the decoders, generated requests and
// answers through the encoders and back.
func FuzzReadCodec(f *testing.F) {
	for i, s := range codecSeeds {
		f.Add([]byte(s.doc), int64(i), s.n, s.provider, math.Float64bits(s.odd))
	}
	f.Fuzz(func(t *testing.T, doc []byte, seed int64, n int, provider string, oddBits uint64) {
		if n < 0 {
			n = -(n + 1)
		}
		checkCodec(t, doc, seed, n, provider, math.Float64frombits(oddBits))
	})
}

// TestDecodeResponseReusesCapacity: the router decodes every answer
// into a pooled slice; stale elements must not show through.
func TestDecodeResponseReusesCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	full := QueryResponse{Results: genResults(rng, 5, "a", 1), TraceID: "t1"}
	fullDoc, _ := json.Marshal(full)
	var resp QueryResponse
	if err := DecodeQueryResponse(fullDoc, &resp); err != nil {
		t.Fatal(err)
	}
	// A shorter answer whose entries omit fields the first one set.
	short := []byte(`{"results":[{"entry":{"id":7},"distanceMeters":2}],"elapsedMicros":3}`)
	if err := DecodeQueryResponse(short, &resp); err != nil {
		t.Fatal(err)
	}
	want := []query.Ranked{{Entry: index.Entry{ID: 7}, DistanceMeters: 2}}
	if !reflect.DeepEqual(resp.Results, want) || cap(resp.Results) < 5 {
		t.Fatalf("got %+v (cap %d), want %+v in the old backing array", resp.Results, cap(resp.Results), want)
	}
}

func TestReadBodyStopsAtLimit(t *testing.T) {
	for _, size := range []int{0, 1, 511, 512, 513, 4096, 70000} {
		src := strings.Repeat("x", size)
		got, err := ReadBody([]byte("ab"), strings.NewReader(src), 4096)
		if err != nil {
			t.Fatal(err)
		}
		if want := "ab" + src[:min(size, 4096)]; string(got) != want {
			t.Fatalf("size %d: read %d bytes, want %d", size, len(got), len(want))
		}
	}
}

func BenchmarkReadCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	resp := QueryResponse{Results: genResults(rng, 20, "client-1", 12.25), ElapsedMicros: 41, TraceID: "q17"}
	doc, _ := json.Marshal(resp)
	b.Run("encode/codec", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendQueryResponse(buf[:0], &resp)
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = json.Marshal(resp)
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		var out QueryResponse
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = DecodeQueryResponse(doc, &out)
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out QueryResponse
			_ = json.Unmarshal(doc, &out)
		}
	})
}
