package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hdfe/internal/synth"
)

// scoreRequest and batchScoreRequest are the scoring bodies as
// encoding/json types. The body parser must accept exactly what
// encoding/json accepts decoding into them, so they are its reference;
// tests also marshal requests with them.
type scoreRequest struct {
	Features []*float64 `json:"features"`
}

type batchScoreRequest struct {
	Records [][]*float64 `json:"records"`
}

// jsonRows decodes body's first value with encoding/json and
// DisallowUnknownFields into the route's request type and returns its
// records, NaN for null, in the parser's shape.
func jsonRows(body []byte, batch bool) ([][]float64, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	unpointer := func(ps []*float64) []float64 {
		row := make([]float64, len(ps))
		for i, p := range ps {
			row[i] = math.NaN()
			if p != nil {
				row[i] = *p
			}
		}
		return row
	}
	if !batch {
		var req scoreRequest
		if err := dec.Decode(&req); err != nil {
			return nil, err
		}
		return [][]float64{unpointer(req.Features)}, nil
	}
	var req batchScoreRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	rows := make([][]float64, len(req.Records))
	for i, rec := range req.Records {
		rows[i] = unpointer(rec)
	}
	return rows, nil
}

// checkAgainstJSON parses body with the scoring parser and with
// encoding/json and fails unless both accept or both reject it, with the
// same records and the same Float64bits for every value.
func checkAgainstJSON(t *testing.T, body []byte, batch bool) {
	t.Helper()
	want, wantErr := jsonRows(body, batch)
	b := &scoringBody{raw: body}
	err := b.parse(batch)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("batch=%v body %q: parser error %v, encoding/json error %v", batch, body, err, wantErr)
	}
	if err != nil {
		return
	}
	if len(b.rows) != len(want) {
		t.Fatalf("batch=%v body %q: %d records, encoding/json %d", batch, body, len(b.rows), len(want))
	}
	for i, row := range b.rows {
		if len(row) != len(want[i]) {
			t.Fatalf("batch=%v body %q record %d: %d values, encoding/json %d", batch, body, i, len(row), len(want[i]))
		}
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(want[i][j]) {
				t.Fatalf("batch=%v body %q record %d value %d: %v, encoding/json %v", batch, body, i, j, v, want[i][j])
			}
		}
	}
}

// scoringBodyCases are bodies chosen to trip a parser that departs from
// encoding/json; each is tried on both routes.
var scoringBodyCases = []string{
	`{"features":[1,2.5,-0,null,6e2,1E-3]}`,
	`{"records":[[1,2],[null,3],[]]}`,
	// Keys match under Unicode case folding and after unescaping.
	`{"Features":[1]}`, `{"FEATURES":[1]}`, `{"Records":[[1]]}`, `{"recordſ":[[1]]}`,
	`{"feature\u017f":[1]}`, `{"feature\u017F":[1]}`, `{"\u0066eatures":[1]}`, `{"rec\u004Frds":[[1]]}`,
	`{"featurés":[1]}`, `{"feat\ud800ures":[1]}`, `{"features\u0000":[1]}`, `{"feature":[1]}`,
	`{"\u212Aey":[1]}`, `{"feat\ud83d\ude00ures":[1]}`, `{"features\ud800\u0073":[1]}`, `{"feature\ud800\u0073":[1]}`,
	// The last of repeated keys wins.
	`{"features":[1,2],"features":[3]}`, `{"features":[1],"features":null}`,
	`{"records":[[1]],"records":[[2],[3]]}`, `{"records":[[1],[2]],"records":null}`,
	// null for the body, the array and one record.
	`null`, `{"features":null}`, `{"records":null}`, `{"records":[null,[1]]}`, `{}`,
	// Anything after the first complete value is ignored.
	`{"features":[1]} trailing`, `{"records":[[1]]}{"x":1}`, `null garbage`, `nullx`,
	" \t\r\n{ \"features\" : [ 1 , 2 ] } ",
	// Rejected: numbers JSON or float64 cannot hold.
	`{"features":[1e400]}`, `{"features":[-1e400]}`, `{"features":[01]}`, `{"features":[1.]}`,
	`{"features":[+1]}`, `{"features":[.5]}`, `{"features":[-]}`, `{"features":[1e]}`,
	`{"features":[NaN]}`, `{"features":[Infinity]}`, `{"features":[1e-400]}`, `{"features":[5e-324]}`,
	// Rejected: trailing commas, a byte-order mark, wrong shapes, unknown
	// fields and truncation.
	`{"features":[1,]}`, `{"features":[1],}`, `{"records":[[1],]}`, "\xef\xbb\xbf{\"features\":[1]}",
	`{"features":[[1]]}`, `{"records":[1]}`, `{"records":[[[1]]]}`, `{"features":"1"}`,
	`{"features":[true]}`, `{"features":[1],"extra":1}`, `{"rows":[[1]]}`, `[1]`, `"x"`, `1`, `true`,
	`{"features":[1]`, `{"features":[1`, `{"features":`, `{"features"`, `{"feat`, `{`, `nul`, ``, `   `,
	`{"features":nullx}`, `{"features":[nul]}`, `{"features":[1 2]}`, `{"features" [1]}`,
	`{"features\":[1]}`, "{\"fe\x01atures\":[1]}", `{"features\q":[1]}`,
}

// TestScoringBodyMatchesEncodingJSON pins the hand-picked bodies: each is
// accepted or rejected on both routes exactly as encoding/json does.
func TestScoringBodyMatchesEncodingJSON(t *testing.T) {
	for _, body := range scoringBodyCases {
		for _, batch := range []bool{false, true} {
			checkAgainstJSON(t, []byte(body), batch)
		}
	}
}

// FuzzScoringBody is the differential check of the body parser, with
// encoding/json as the oracle, over both body shapes.
func FuzzScoringBody(f *testing.F) {
	for _, body := range scoringBodyCases {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, batch bool) {
		checkAgainstJSON(t, body, batch)
	})
}

// TestOversizedBodyIs413 sends both scoring routes a body past the 8 MiB
// limit, once as one long array and once as a small complete value
// followed by padding. Each is answered 413, counted as an error and
// never reaches validation.
func TestOversizedBodyIs413(t *testing.T) {
	dep := testDeployment(t, 256)
	s := New(dep, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	long := func(open, close string) []byte {
		var b bytes.Buffer
		b.WriteString(open)
		for b.Len() <= maxBodyBytes {
			b.WriteString("1,")
		}
		b.WriteString("1" + close)
		return b.Bytes()
	}
	padded := func(value string) []byte {
		return append([]byte(value), bytes.Repeat([]byte(" "), maxBodyBytes)...)
	}
	cases := []struct {
		name, route string
		body        []byte
	}{
		{"score/long", "/v1/score", long(`{"features":[`, `]}`)},
		{"score/padded", "/v1/score", padded(`{"features":[1,2,3,4,5,6,7,8]}`)},
		{"batch/long", "/v1/score/batch", long(`{"records":[[`, `]]}`)},
		{"batch/padded", "/v1/score/batch", padded(`{"records":[[1,2,3,4,5,6,7,8]]}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+tc.route, "application/json", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("status %d, want 413: %s", resp.StatusCode, out)
			}
			if !strings.Contains(string(out), fmt.Sprint(maxBodyBytes)) {
				t.Errorf("body %s does not name the limit", out)
			}
		})
	}
	if got := s.Metrics().errors.Load(); got != uint64(len(cases)) {
		t.Errorf("errors = %d, want %d", got, len(cases))
	}
	if got := s.Metrics().validationErrs.Load(); got != 0 {
		t.Errorf("validation_errors = %d, want 0", got)
	}
}

// BenchmarkParseScoringBody64 reads and parses a 64-record Pima M batch
// body, the pima-cohort request, through the pooled path the batch route
// uses.
//
//	go test ./internal/serve -run '^$' -bench ParseScoringBody64 -benchmem
func BenchmarkParseScoringBody64(b *testing.B) {
	d := synth.PimaM(7)
	recs := make([][]*float64, 64)
	for i := range recs {
		recs[i] = floats(d.X[i]...)
	}
	body, err := json.Marshal(batchScoreRequest{Records: recs})
	if err != nil {
		b.Fatal(err)
	}
	w := httptest.NewRecorder()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/score/batch", bytes.NewReader(body))
		sb, err := readScoringBody(w, r)
		if err != nil {
			b.Fatal(err)
		}
		if err := sb.parse(true); err != nil || len(sb.rows) != 64 {
			b.Fatalf("parse: %v, %d records", err, len(sb.rows))
		}
		sb.release()
	}
}
