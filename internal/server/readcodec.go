// The read surface's JSON codec: POST /query and POST /nearest bodies
// and their one answer document, written and parsed by hand instead of
// through encoding/json's reflection. A routed query crosses JSON four
// times (router decode, partition decode, partition encode, router
// decode + re-encode), so the codec is shared by the single-node
// handlers, the router and its partition legs.
//
// The contract is byte-identity with encoding/json. Encoding appends
// the exact bytes json.Marshal would produce; whatever has no fast form
// (a string needing escapes, an inline ?explain=1 trace, a NaN) is
// handed to json.Marshal for that value or, for the NaN, for its error.
// Decoding accepts one grammar — the documents the encoder writes, in
// any key order and with any JSON whitespace — and hands every other
// document (escapes, non-ASCII, null, unknown, duplicate or differently
// cased keys, integers with a fraction, a trace) to json.Unmarshal
// whole, so accepted inputs, decoded values and error texts are those
// of encoding/json. FuzzReadCodec holds both directions to that.
package server

import (
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"

	"fovr/internal/fov"
	"fovr/internal/geo"
	"fovr/internal/index"
	"fovr/internal/query"
	"fovr/internal/segment"
)

// ReadBody appends up to limit bytes of r to dst. Like
// io.ReadAll(io.LimitReader(r, limit)) it stops silently at the limit;
// unlike it, it reads into the caller's buffer.
func ReadBody(dst []byte, r io.Reader, limit int) ([]byte, error) {
	start := len(dst)
	for len(dst)-start < limit {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		room := dst[len(dst):cap(dst)]
		if over := len(dst) - start + len(room) - limit; over > 0 {
			room = room[:len(room)-over]
		}
		n, err := r.Read(room)
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// --- encoding --------------------------------------------------------------

// AppendQueryRequest appends req as json.Marshal would write it.
func AppendQueryRequest(dst []byte, req *QueryRequest) ([]byte, error) {
	b := append(dst, `{"startMillis":`...)
	b = strconv.AppendInt(b, req.StartMillis, 10)
	b = append(b, `,"endMillis":`...)
	b = strconv.AppendInt(b, req.EndMillis, 10)
	b = append(b, `,"center":`...)
	b, ok := appendPoint(b, req.Center)
	b = append(b, `,"radiusMeters":`...)
	b, ok = appendFloat(b, req.RadiusMeters, ok)
	if req.MaxResults != 0 {
		b = append(b, `,"maxResults":`...)
		b = strconv.AppendInt(b, int64(req.MaxResults), 10)
	}
	if !ok {
		return appendMarshal(dst, *req) // a copy: req must not escape for the sake of this path
	}
	return append(b, '}'), nil
}

// AppendQueryResponse appends resp as json.Marshal would write it. An
// inline trace is marshalled by encoding/json in place.
func AppendQueryResponse(dst []byte, resp *QueryResponse) ([]byte, error) {
	b, ok := dst, true
	if resp.Results == nil {
		b = append(b, `{"results":null`...)
	} else {
		b = append(b, `{"results":[`...)
		for i := range resp.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b, ok = appendRanked(b, &resp.Results[i], ok)
		}
		b = append(b, ']')
	}
	b = append(b, `,"elapsedMicros":`...)
	b = strconv.AppendInt(b, resp.ElapsedMicros, 10)
	if resp.TraceID != "" {
		b = append(b, `,"traceID":`...)
		b = appendString(b, resp.TraceID)
	}
	if !ok {
		return appendMarshal(dst, *resp)
	}
	if resp.Trace != nil {
		b = append(b, `,"trace":`...)
		var err error
		if b, err = appendMarshal(b, resp.Trace); err != nil {
			return dst, err
		}
	}
	return append(b, '}'), nil
}

// appendMarshal is the fallback: encoding/json's bytes, or its error.
func appendMarshal(dst []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, data...), nil
}

func appendRanked(b []byte, r *query.Ranked, ok bool) ([]byte, bool) {
	e := &r.Entry
	b = append(b, `{"entry":{"id":`...)
	b = strconv.AppendUint(b, e.ID, 10)
	b = append(b, `,"provider":`...)
	b = appendString(b, e.Provider)
	b = append(b, `,"rep":{"fov":{"p":`...)
	b, pok := appendPoint(b, e.Rep.FoV.P)
	b = append(b, `,"theta":`...)
	b, ok = appendFloat(b, e.Rep.FoV.Theta, ok && pok)
	b = append(b, `},"startMillis":`...)
	b = strconv.AppendInt(b, e.Rep.StartMillis, 10)
	b = append(b, `,"endMillis":`...)
	b = strconv.AppendInt(b, e.Rep.EndMillis, 10)
	b = append(b, `},"camera":{"halfAngleDeg":`...)
	b, ok = appendFloat(b, e.Camera.HalfAngleDeg, ok)
	b = append(b, `,"radiusMeters":`...)
	b, ok = appendFloat(b, e.Camera.RadiusMeters, ok)
	b = append(b, `}},"distanceMeters":`...)
	b, ok = appendFloat(b, r.DistanceMeters, ok)
	return append(b, '}'), ok
}

func appendPoint(b []byte, p geo.Point) ([]byte, bool) {
	b = append(b, `{"lat":`...)
	b, ok := appendFloat(b, p.Lat, true)
	b = append(b, `,"lng":`...)
	b, ok = appendFloat(b, p.Lng, ok)
	return append(b, '}'), ok
}

// appendFloat writes f the way encoding/json's float64 encoder does:
// shortest round-trip digits, exponent form outside [1e-6, 1e21) with
// a two-digit exponent's leading zero dropped. NaN and infinities have
// no JSON form; they clear ok so the caller falls back for the error.
func appendFloat(b []byte, f float64, ok bool) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b, ok
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64), ok
}

// plainByte reports whether c stands for itself inside a JSON string on
// both sides of the codec: printable ASCII that encoding/json neither
// escapes (quote, backslash and the HTML trio) nor has to validate.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			data, _ := json.Marshal(s) // a string always marshals
			return append(b, data...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// --- decoding --------------------------------------------------------------

// DecodeQueryRequest is json.Unmarshal(data, req) for a zero *req.
func DecodeQueryRequest(data []byte, req *QueryRequest) error {
	d := decoder{b: data}
	if d.queryRequest(req) && d.end() {
		return nil
	}
	*req = QueryRequest{}
	return json.Unmarshal(data, req)
}

// DecodeNearestRequest is json.Unmarshal(data, req) for a zero *req.
func DecodeNearestRequest(data []byte, req *NearestRequest) error {
	d := decoder{b: data}
	if d.nearestRequest(req) && d.end() {
		return nil
	}
	*req = NearestRequest{}
	return json.Unmarshal(data, req)
}

// DecodeQueryResponse is json.Unmarshal(data, resp) into a zeroed
// *resp, except that the capacity of resp.Results is reused. POST
// /nearest answers with the same document.
func DecodeQueryResponse(data []byte, resp *QueryResponse) error {
	d := decoder{b: data}
	*resp = QueryResponse{Results: resp.Results[:0]}
	if d.answer(&resp.Results, &resp.ElapsedMicros, &resp.TraceID) && d.end() {
		return nil
	}
	*resp = QueryResponse{}
	return json.Unmarshal(data, resp)
}

// decoder is a cursor over one document. Every method reports false on
// the first byte outside the fast grammar; the caller then abandons the
// attempt, so a false result never needs a reason.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// end reports whether only whitespace remains.
func (d *decoder) end() bool {
	d.skipSpace()
	return d.i == len(d.b)
}

// open consumes the byte c after any whitespace.
func (d *decoder) open(c byte) bool {
	d.skipSpace()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// next steps to the next member of an object: it returns the member's
// key with the cursor after the colon, or done at the closing brace.
// first says whether a member has been read yet (no comma before it).
func (d *decoder) next(first bool) (key []byte, done, ok bool) {
	d.skipSpace()
	if d.i >= len(d.b) {
		return nil, false, false
	}
	switch c := d.b[d.i]; {
	case c == '}':
		d.i++
		return nil, true, true
	case c == ',' && !first:
		d.i++
		d.skipSpace()
	case !first:
		return nil, false, false
	}
	key, ok = d.rawString()
	if !ok || !d.open(':') {
		return nil, false, false
	}
	return key, false, true
}

// rawString consumes a string of plain bytes and returns them unquoted.
func (d *decoder) rawString() ([]byte, bool) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, false
	}
	start := d.i + 1
	for j := start; j < len(d.b); j++ {
		c := d.b[j]
		if c == '"' {
			d.i = j + 1
			return d.b[start:j], true
		}
		// The HTML trio needs no escape when read, only when written.
		if !plainByte(c) && c != '<' && c != '>' && c != '&' {
			return nil, false
		}
	}
	return nil, false
}

func (d *decoder) str(dst *string) bool {
	d.skipSpace()
	raw, ok := d.rawString()
	if ok {
		*dst = string(raw)
	}
	return ok
}

// number consumes one JSON number literal. The byte after it must be
// one that can follow a value, so "1x" or "01" are left to encoding/json
// to reject.
func (d *decoder) number() (lit []byte, integer, ok bool) {
	d.skipSpace()
	b, i := d.b, d.i
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		integer = false
		if !digits() {
			return nil, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		integer = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, false
		}
	}
	if i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n', ',', '}', ']':
		default:
			return nil, false, false
		}
	}
	lit, d.i = b[d.i:i], i
	return lit, integer, true
}

func (d *decoder) float(dst *float64) bool {
	lit, _, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

func (d *decoder) int(dst *int64) bool {
	lit, integer, ok := d.number()
	if !ok || !integer {
		return false
	}
	if len(lit) > 18 { // could overflow: let ParseInt decide
		n, err := strconv.ParseInt(string(lit), 10, 64)
		*dst = n
		return err == nil
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	var n int64
	for _, c := range lit {
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	*dst = n
	return true
}

func (d *decoder) uint(dst *uint64) bool {
	lit, integer, ok := d.number()
	if !ok || !integer || lit[0] == '-' {
		return false
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	*dst = n
	return err == nil
}

// platformInt reads an int field (maxResults, k).
func (d *decoder) platformInt(dst *int) bool {
	var n int64
	if !d.int(&n) || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

// object walks the members of one object. member reads the value of
// key and names the key's bit in the duplicate mask; it reports false
// for a key outside the grammar. A second sighting of a key is outside
// it too (encoding/json would merge the two values).
func (d *decoder) object(member func(key []byte) (bit uint, ok bool)) bool {
	if !d.open('{') {
		return false
	}
	var mask uint
	for first := true; ; first = false {
		key, done, ok := d.next(first)
		if !ok || done {
			return ok
		}
		bit, ok := member(key)
		if !ok || mask&bit != 0 {
			return false
		}
		mask |= bit
	}
}

func (d *decoder) point(p *geo.Point) bool {
	return d.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "lat":
			return 1, d.float(&p.Lat)
		case "lng":
			return 2, d.float(&p.Lng)
		}
		return 0, false
	})
}

func (d *decoder) queryRequest(req *QueryRequest) bool {
	return d.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "startMillis":
			return 1, d.int(&req.StartMillis)
		case "endMillis":
			return 2, d.int(&req.EndMillis)
		case "center":
			return 4, d.point(&req.Center)
		case "radiusMeters":
			return 8, d.float(&req.RadiusMeters)
		case "maxResults":
			return 16, d.platformInt(&req.MaxResults)
		}
		return 0, false
	})
}

func (d *decoder) nearestRequest(req *NearestRequest) bool {
	return d.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "center":
			return 1, d.point(&req.Center)
		case "startMillis":
			return 2, d.int(&req.StartMillis)
		case "endMillis":
			return 4, d.int(&req.EndMillis)
		case "k":
			return 8, d.platformInt(&req.K)
		}
		return 0, false
	})
}

// answer reads a /query or /nearest answer without a trace.
func (d *decoder) answer(results *[]query.Ranked, elapsedMicros *int64, traceID *string) bool {
	return d.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "results":
			return 1, d.results(results)
		case "elapsedMicros":
			return 2, d.int(elapsedMicros)
		case "traceID":
			return 4, d.str(traceID)
		}
		return 0, false
	})
}

func (d *decoder) results(dst *[]query.Ranked) bool {
	if !d.open('[') {
		return false
	}
	rs := *dst
	if rs == nil {
		rs = []query.Ranked{} // "[]" decodes to empty, not nil
	}
	for first := true; !d.open(']'); first = false {
		if !first && !d.open(',') {
			return false
		}
		rs = append(rs, query.Ranked{})
		if !d.ranked(&rs[len(rs)-1]) {
			return false
		}
	}
	*dst = rs
	return true
}

func (d *decoder) ranked(r *query.Ranked) bool {
	return d.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "entry":
			return 1, d.entry(&r.Entry)
		case "distanceMeters":
			return 2, d.float(&r.DistanceMeters)
		}
		return 0, false
	})
}

func (d *decoder) entry(e *index.Entry) bool {
	return d.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "id":
			return 1, d.uint(&e.ID)
		case "provider":
			return 2, d.str(&e.Provider)
		case "rep":
			return 4, d.rep(&e.Rep)
		case "camera":
			return 8, d.camera(&e.Camera)
		}
		return 0, false
	})
}

func (d *decoder) rep(r *segment.Representative) bool {
	return d.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "fov":
			return 1, d.fov(&r.FoV)
		case "startMillis":
			return 2, d.int(&r.StartMillis)
		case "endMillis":
			return 4, d.int(&r.EndMillis)
		}
		return 0, false
	})
}

func (d *decoder) fov(f *fov.FoV) bool {
	return d.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "p":
			return 1, d.point(&f.P)
		case "theta":
			return 2, d.float(&f.Theta)
		}
		return 0, false
	})
}

func (d *decoder) camera(c *fov.Camera) bool {
	return d.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "halfAngleDeg":
			return 1, d.float(&c.HalfAngleDeg)
		case "radiusMeters":
			return 2, d.float(&c.RadiusMeters)
		}
		return 0, false
	})
}
