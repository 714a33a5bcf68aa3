package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The two scoring routes parse their bodies by hand, in one pass over the
// bytes, with no reflection and no pointer per value. A body is accepted,
// and every number gets the same Float64bits, exactly when encoding/json
// accepts the body's first value decoded with DisallowUnknownFields into
//
//	struct{ Features []*float64 `json:"features"` }  // POST /v1/score
//	struct{ Records [][]*float64 `json:"records"` }  // POST /v1/score/batch
//
// So a key matches its field case-insensitively under Unicode folding,
// after unescaping; a repeated key replaces the earlier value; null may
// stand for the body, an array or a value; and bytes after the first
// complete value are ignored. A number's value is built as its digits
// are scanned, with strconv.ParseFloat only for literals too long or with
// an exponent part (see number). FuzzScoringBody checks all of this
// against encoding/json.

// Buffers larger than these go back to the garbage collector, not to
// bodyPool, so one large body cannot pin its memory. A 64-record batch
// of 16 features needs about a tenth of each.
const (
	maxPooledBytes = 64 << 10
	maxPooledVals  = 8 << 10
	maxPooledRows  = 1 << 10
)

// scoringBody is one scoring request's body and its parsed records:
// rows[i] slices vals, which holds NaN for a null value. The features
// route parses into exactly one row, nil when the array is null or
// absent; a null record parses to an empty row.
type scoringBody struct {
	raw  []byte
	vals []float64
	rows [][]float64
}

var bodyPool = sync.Pool{New: func() any { return new(scoringBody) }}

// readScoringBody reads the whole body, at most maxBodyBytes of it, into a
// pooled scoringBody. Past the limit it fails with *http.MaxBytesError.
func readScoringBody(w http.ResponseWriter, r *http.Request) (*scoringBody, error) {
	b := bodyPool.Get().(*scoringBody)
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	raw := b.raw[:0]
	if cap(raw) == 0 {
		raw = make([]byte, 0, 512)
	}
	for {
		n, err := body.Read(raw[len(raw):cap(raw)])
		raw = raw[:len(raw)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			b.raw = raw
			b.release()
			return nil, err
		}
		if len(raw) == cap(raw) {
			raw = append(raw, 0)[:len(raw)]
		}
	}
	b.raw = raw
	return b, nil
}

// release returns b to the pool unless it has grown past the pooling
// caps. Nothing may use b or its rows afterwards.
func (b *scoringBody) release() {
	if cap(b.raw) > maxPooledBytes || cap(b.vals) > maxPooledVals || cap(b.rows) > maxPooledRows {
		return
	}
	bodyPool.Put(b)
}

// parse parses b.raw as a scoring body: {"records":[[…],…]} when batch is
// set, else {"features":[…]}.
func (b *scoringBody) parse(batch bool) error {
	p := bodyParser{buf: b.raw, vals: b.vals[:0], rows: b.rows[:0]}
	err := p.body(batch)
	b.vals, b.rows = p.vals, p.rows
	if err != nil {
		return err
	}
	if !batch {
		b.rows = append(b.rows[:0], nil)
		if p.present {
			b.rows[0] = b.vals[:len(b.vals):len(b.vals)]
		}
		return nil
	}
	// Appending may have moved vals since each row was sliced; only the
	// lengths are kept.
	off := 0
	for i, row := range b.rows {
		end := off + len(row)
		b.rows[i] = b.vals[off:end:end]
		off = end
	}
	return nil
}

// bodyParser is the scanner behind scoringBody.parse. Values are appended
// to vals, and each record of a batch to rows.
type bodyParser struct {
	buf     []byte
	pos     int
	vals    []float64
	rows    [][]float64
	present bool // the features array was given and not null
}

// body parses the first value of the body: null, or an object whose keys
// all name the route's one field.
func (p *bodyParser) body(batch bool) error {
	field := "features"
	if batch {
		field = "records"
	}
	p.space()
	if p.null() {
		return nil
	}
	if !p.consume('{') {
		return p.errAt("an object")
	}
	p.space()
	if p.consume('}') {
		return nil
	}
	for {
		p.space()
		if err := p.key(field); err != nil {
			return err
		}
		p.space()
		if !p.consume(':') {
			return p.errAt("':'")
		}
		// A repeated key replaces what the earlier one parsed.
		p.vals, p.rows, p.present = p.vals[:0], p.rows[:0], false
		var err error
		if batch {
			err = p.records()
		} else {
			p.present, err = p.numbers()
		}
		if err != nil {
			return err
		}
		p.space()
		if p.consume('}') {
			return nil
		}
		if !p.consume(',') {
			return p.errAt("',' or '}'")
		}
	}
}

// records parses null or an array of records, each null or an array of
// numbers.
func (p *bodyParser) records() error {
	p.space()
	if p.null() {
		return nil
	}
	if !p.consume('[') {
		return p.errAt("an array of records")
	}
	p.space()
	if p.consume(']') {
		return nil
	}
	for {
		start := len(p.vals)
		if _, err := p.numbers(); err != nil {
			return err
		}
		p.rows = append(p.rows, p.vals[start:])
		p.space()
		if p.consume(']') {
			return nil
		}
		if !p.consume(',') {
			return p.errAt("',' or ']'")
		}
	}
}

// numbers parses null, reporting false, or an array of numbers and nulls,
// appending each to vals with NaN for null.
func (p *bodyParser) numbers() (bool, error) {
	p.space()
	if p.null() {
		return false, nil
	}
	if !p.consume('[') {
		return false, p.errAt("an array of numbers")
	}
	p.space()
	if p.consume(']') {
		return true, nil
	}
	for {
		p.space()
		if p.null() {
			p.vals = append(p.vals, math.NaN())
		} else {
			f, err := p.number()
			if err != nil {
				return false, err
			}
			p.vals = append(p.vals, f)
		}
		p.space()
		if p.consume(']') {
			return true, nil
		}
		if !p.consume(',') {
			return false, p.errAt("',' or ']'")
		}
	}
}

// maxExactDigits is the most digits a plain decimal may have for number
// to compute its value itself: below 10^15 its digits are an exact
// float64, and so is 10^k for its k <= 15 fraction digits.
const maxExactDigits = 15

// pow10 holds the exact powers of ten number divides by.
var pow10 = [maxExactDigits + 1]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// number parses one JSON number, building its value while it checks the
// grammar. A literal with no exponent part and at most maxExactDigits
// digits is m / 10^k for its digits m and its k fraction digits: both
// operands are exact and IEEE division rounds once, so that is the
// correctly rounded value strconv.ParseFloat returns (Clinger's fast
// path). A leading '-' negates the quotient, so -0 stays -0. Every other
// literal goes to strconv.ParseFloat, as in encoding/json; a number out
// of float64 range is an error there too.
func (p *bodyParser) number() (float64, error) {
	b, start := p.buf, p.pos
	neg := p.consume('-')
	var m uint64
	var nd int
	switch {
	case p.consume('0'):
		nd = 1
	case p.pos < len(b) && '1' <= b[p.pos] && b[p.pos] <= '9':
		m, nd = p.digits(0, 0)
	default:
		return 0, p.errAt("a number")
	}
	frac := 0
	if p.consume('.') {
		whole := nd
		if m, nd = p.digits(m, nd); nd == whole {
			return 0, p.errAt("a digit")
		}
		frac = nd - whole
	}
	exact := nd <= maxExactDigits
	if p.consume('e') || p.consume('E') {
		exact = false
		_ = p.consume('+') || p.consume('-')
		if _, n := p.digits(0, 0); n == 0 {
			return 0, p.errAt("a digit")
		}
	}
	if exact {
		f := float64(m) / pow10[frac]
		if neg {
			f = -f
		}
		return f, nil
	}
	lit := b[start:p.pos]
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s at offset %d is out of range", lit, start)
	}
	return f, nil
}

// digits scans a run of decimal digits onto m, a number of nd digits so
// far, and returns both with the run appended. m wraps past 19 digits;
// number reads it only up to maxExactDigits.
func (p *bodyParser) digits(m uint64, nd int) (uint64, int) {
	for ; p.pos < len(p.buf); p.pos++ {
		c := p.buf[p.pos] - '0'
		if c > 9 {
			break
		}
		m = m*10 + uint64(c)
		nd++
	}
	return m, nd
}

// key parses an object key and fails unless, unescaped, it matches field
// as encoding/json matches keys to fields: exactly or under case folding,
// where an ASCII letter folds to its upper case and any other rune to the
// smallest rune of its Unicode fold orbit. field is lower-case ASCII
// letters.
func (p *bodyParser) key(field string) error {
	start := p.pos
	if !p.consume('"') {
		return p.errAt("a string key")
	}
	for k := 0; ; k++ {
		if p.pos >= len(p.buf) {
			return p.errAt("'\"'")
		}
		var r rune
		switch c := p.buf[p.pos]; {
		case c == '"' && k == len(field):
			p.pos++
			return nil
		case c < ' ':
			return p.errAt("a string character")
		case c == '\\':
			var ok bool
			if r, ok = p.unicodeEscape(); !ok {
				// A bad escape is malformed, and any escape but \u
				// stands for a character no field name has.
				return fmt.Errorf("unknown field at offset %d, want %q", start, field)
			}
		case c < utf8.RuneSelf:
			r = rune(c)
			p.pos++
		default:
			var size int
			r, size = utf8.DecodeRune(p.buf[p.pos:])
			p.pos += size
		}
		if k == len(field) || !foldsTo(r, field[k]) {
			return fmt.Errorf("unknown field at offset %d, want %q", start, field)
		}
	}
}

// unicodeEscape decodes a \uXXXX escape at p.pos. A UTF-16 surrogate
// reports false: encoding/json unescapes it, alone or paired, to U+FFFD
// or to a rune past U+FFFF, and neither folds to an ASCII letter.
func (p *bodyParser) unicodeEscape() (rune, bool) {
	r, ok := hex4(p.buf[p.pos:])
	if !ok || utf16.IsSurrogate(r) {
		return 0, false
	}
	p.pos += 6
	return r, true
}

// hex4 decodes a \uXXXX escape at the start of b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return 0, false
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// foldsTo reports whether encoding/json's key folding maps r to the fold
// of the lower-case ASCII letter c, which is c's upper case.
func foldsTo(r rune, c byte) bool {
	upper := rune(c - 'a' + 'A')
	if r < utf8.RuneSelf {
		return r == rune(c) || r == upper
	}
	// The smallest rune of r's orbit: upper case ASCII is the smallest of
	// any orbit it is in.
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		if f == upper {
			return true
		}
	}
	return false
}

// space skips JSON whitespace.
func (p *bodyParser) space() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// consume skips c if it is the next byte.
func (p *bodyParser) consume(c byte) bool {
	if p.pos < len(p.buf) && p.buf[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// null skips the literal null if it comes next.
func (p *bodyParser) null() bool {
	if len(p.buf)-p.pos >= 4 && string(p.buf[p.pos:p.pos+4]) == "null" {
		p.pos += 4
		return true
	}
	return false
}

// errAt describes what the parser found at its position when it wanted
// want.
func (p *bodyParser) errAt(want string) error {
	if p.pos >= len(p.buf) {
		return fmt.Errorf("unexpected end of body, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", p.buf[p.pos], p.pos, want)
}
