package server

import (
	"bytes"
	"net/http"
	"strconv"

	"fullview/internal/jsonlog"
)

// decodeQuery reads the /query body once and decodes it. The body goes
// through scanQuery first; a body the scanner declines goes, as the
// same bytes, to jsonlog.Decode, the strict decoder every other route
// uses. The fallback alone decides every refusal and every odd but
// legal body, so the scanner only has to be exact on what it accepts.
func (s *Server) decodeQuery(r *http.Request) (queryRequest, error) {
	body, err := s.readBody(r)
	if err != nil {
		return queryRequest{}, err
	}
	if !s.testNoQueryScan {
		if req, ok := scanQuery(body); ok {
			return req, nil
		}
	}
	var req queryRequest
	err = jsonlog.Decode(body, &req)
	return req, err
}

// scanQuery decodes a queryRequest without reflection, or declines
// (ok false). It accepts only
//
//   - one object whose keys are exactly "thetasPi" and "points",
//     unescaped, each at most once;
//   - thetasPi an array of numbers, points an array of objects whose
//     keys are exactly "x" and "y", each at most once, with number
//     values;
//   - numbers matching -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)? that
//     strconv.ParseFloat parses to a float64 without a range error;
//   - JSON whitespace between tokens and after the object.
//
// Everything else — null, escapes, case-variant or unknown keys,
// duplicate keys, other value types, trailing bytes — is declined, and
// encoding/json's answer for it (it folds key case, reads a null point
// as (0, 0), and a repeated "points" overwrites the earlier elements
// field by field) stays the fallback's. On every body scanQuery
// accepts, the result is bit-identical to jsonlog.Decode's, which
// FuzzQueryDecode pins.
func scanQuery(data []byte) (queryRequest, bool) {
	s := queryScanner{b: data}
	var req queryRequest
	if !s.eat('{') {
		return queryRequest{}, false
	}
	if !s.eat('}') {
		var haveThetas, havePoints bool
		for {
			var ok bool
			switch string(s.key()) {
			case "thetasPi":
				if haveThetas {
					return queryRequest{}, false
				}
				haveThetas = true
				req.ThetasPi, ok = scanList(&s, (*queryScanner).number)
			case "points":
				if havePoints {
					return queryRequest{}, false
				}
				havePoints = true
				req.Points, ok = scanList(&s, (*queryScanner).point)
			}
			if !ok {
				return queryRequest{}, false
			}
			if s.eat('}') {
				break
			}
			if !s.eat(',') {
				return queryRequest{}, false
			}
		}
	}
	s.skip()
	if s.i != len(s.b) {
		return queryRequest{}, false
	}
	return req, true
}

// queryScanner is scanQuery's cursor: b[i:] is the unread input.
type queryScanner struct {
	b []byte
	i int
}

// skip advances past JSON whitespace.
func (s *queryScanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c after any whitespace and reports whether it was there.
func (s *queryScanner) eat(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes an object key and its colon and returns the bytes
// between the quotes, escapes left raw (so an escaped key never equals
// a field name); nil when no key is there.
func (s *queryScanner) key() []byte {
	if !s.eat('"') {
		return nil
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return nil
	}
	k := s.b[s.i : s.i+n]
	s.i += n + 1
	if !s.eat(':') {
		return nil
	}
	return k
}

// number consumes one JSON number and parses it as a float64.
func (s *queryScanner) number() (float64, bool) {
	s.skip()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, false
	}
	s.i = i
	return v, true
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// point consumes one {"x":…,"y":…} object; a missing coordinate is 0.
func (s *queryScanner) point() (pointJSON, bool) {
	var p pointJSON
	if !s.eat('{') {
		return p, false
	}
	if s.eat('}') {
		return p, true
	}
	var haveX, haveY, ok bool
	for {
		switch string(s.key()) {
		case "x":
			if haveX {
				return p, false
			}
			haveX = true
			p.X, ok = s.number()
		case "y":
			if haveY {
				return p, false
			}
			haveY = true
			p.Y, ok = s.number()
		default:
			ok = false
		}
		if !ok {
			return p, false
		}
		if s.eat('}') {
			return p, true
		}
		if !s.eat(',') {
			return p, false
		}
	}
}

// scanList consumes a JSON array whose elements elem consumes. An empty
// array is an empty, non-nil slice, as encoding/json decodes it.
func scanList[T any](s *queryScanner, elem func(*queryScanner) (T, bool)) ([]T, bool) {
	if !s.eat('[') {
		return nil, false
	}
	out := []T{}
	if s.eat(']') {
		return out, true
	}
	for {
		v, ok := elem(s)
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.eat(']') {
			return out, true
		}
		if !s.eat(',') {
			return nil, false
		}
	}
}
