package prov

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/jsonscan"
)

// transcodeText is TranscodeJSON over data as one JSON text, with a
// syntax error, or bytes after the document, reported as ParseJSON
// reports them. The blob is appended to prefix.
func transcodeText(prefix, data []byte) (blob []byte, st Stats, invalid, err error) {
	sc := jsonscan.New(data)
	blob, st, invalid, err = TranscodeJSON(prefix, &sc)
	if err == nil {
		err = sc.End()
	}
	if err != nil {
		return nil, Stats{}, nil, fmt.Errorf("prov: invalid PROV-JSON: %w", err)
	}
	return blob, st, invalid, nil
}

// encodeReference is what TranscodeJSON stands for: ParseJSON, then
// the map walk Validate replaced (oracleValidate) and AppendBinary on
// the document. err is a syntax error, invalid a document ParseJSON or
// the oracle rejects; a document the oracle rejects still has its blob
// and stats.
func encodeReference(data []byte) (blob []byte, st Stats, invalid, err error) {
	doc, err := ParseJSON(data)
	if err != nil {
		if syntax := new(jsonscan.SyntaxError); errors.As(err, &syntax) {
			return nil, Stats{}, nil, err
		}
		return nil, Stats{}, err, nil
	}
	_, invalid = oracleValidate(doc)
	return AppendBinary(nil, doc), doc.Stats(), invalid, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkTranscode holds TranscodeJSON on data to encodeReference: the
// same syntax error or none, the same invalid error or none, by text,
// and the same blob and stats whenever the reference has a document.
// The blob is appended to a prefix, which stays as it was.
func checkTranscode(t *testing.T, data []byte) {
	t.Helper()
	prefix := []byte("dst")
	got, st, invalid, err := transcodeText(prefix[:len(prefix):len(prefix)], data)
	want, wantSt, wantInvalid, wantErr := encodeReference(data)
	if errText(err) != errText(wantErr) || errText(invalid) != errText(wantInvalid) {
		t.Fatalf("transcoder: err %v, invalid %v\nreference: err %v, invalid %v", err, invalid, wantErr, wantInvalid)
	}
	if want == nil {
		return
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("the blob does not follow dst: %x", got)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("transcoded blob\n%x\nAppendBinary(ParseJSON)\n%x", got, want)
	}
	if st != wantSt {
		t.Fatalf("stats %+v, the document's %+v", st, wantSt)
	}
}

// readCorpus reads the inputs of a committed fuzz corpus directory
// ("go test fuzz v1" files holding one []byte each).
func readCorpus(tb testing.TB, dir string) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no corpus under %s (%v)", dir, err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzTranscodeJSONMatchesEncode holds TranscodeJSON to ParseJSON,
// oracleValidate and AppendBinary (checkTranscode): same blob byte for byte,
// same syntax or invalid error by text, same stats. Seeds: those of
// FuzzParseJSONMatchesReference with its committed corpus, and the doc
// of every line of the batch endpoint's seed file.
func FuzzTranscodeJSONMatchesEncode(f *testing.F) {
	for _, d := range fuzzSeedDocs() {
		j, err := d.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(j)
	}
	for _, s := range jsonTraps {
		f.Add([]byte(s))
	}
	for _, s := range readCorpus(f, "testdata/fuzz/FuzzParseJSONMatchesReference") {
		f.Add(s)
	}
	lines, err := os.ReadFile("../provservice/testdata/batch_line_seeds.ndjson")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(lines), []byte("\n")) {
		var l struct{ Doc json.RawMessage }
		if err := json.Unmarshal(line, &l); err == nil && l.Doc != nil {
			f.Add([]byte(l.Doc))
		}
	}
	for _, doc := range invalidDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(checkTranscode)
}

// invalidDocs are documents ParseJSON accepts and Validate rejects, for
// several issues at once, warnings among them.
var invalidDocs = []string{
	`{"entity":{"bad2":{},"ex:ok":{},"bad1":{},"zz:warn":{}},"agent":{"ag":{}},"activity":{"ex:a":{"prov:startTime":"2024-01-02T00:00:00Z","prov:endTime":"2024-01-01T00:00:00Z"}}}`,
	`{"entity":{"ex:e":{}},"activity":{"ex:a":{}},"agent":{"ex:g":{}},"used":{"u1":{"prov:activity":"ex:e","prov:entity":"ex:a"},"u2":{"prov:activity":"ex:a","prov:entity":"ex:missing"}},"wasAssociatedWith":{"w":{"prov:activity":"ex:a","prov:agent":"ex:e"}}}`,
	`{"entity":{"ex:x":{}},"agent":{"ex:x":{}},"activity":{"ex:x":{}},"wasDerivedFrom":{"d":{"prov:generatedEntity":"ex:x","prov:usedEntity":"ex:x"}},"actedOnBehalfOf":{"o":{"prov:delegate":"ex:x","prov:responsible":"ex:x"}}}`,
	`{"prefix":{"zz":"http://z/"},"entity":{"zz:e":{},"qq:e":{}},"wasAttributedTo":{"":{"prov:entity":"zz:e","prov:agent":"qq:e"}}}`,
}

func TestTranscodeJSONMatchesEncode(t *testing.T) {
	for _, doc := range invalidDocs {
		checkTranscode(t, []byte(doc))
	}
	for _, depth := range []int{1, 12, 64} {
		checkTranscode(t, chainDocJSON(depth))
	}
	checkTranscode(t, primerJSON(t))
}

// manyElementsDoc has several elements of every class, several
// attributes per record of every value kind, activity and relation
// times and relations of several kinds.
func manyElementsDoc() *Document {
	d := NewDocument()
	d.Namespaces.Register("run", "http://example.org/run#")
	when := time.Date(2025, 3, 4, 5, 6, 7, 8000, time.UTC)
	for i := range 9 {
		d.AddEntity(QName(fmt.Sprintf("ex:data%d", i)), Attrs{
			"prov:type": Str("provml:Dataset"), "run:rows": Int(int64(1000 * i)),
			"run:mean": Float(0.5 * float64(i)), "run:ok": Bool(i%2 == 0),
			"run:seen": Time(when.Add(time.Duration(i) * time.Hour)), "run:of": Ref("ex:data0"),
		})
	}
	for i := range 5 {
		a := d.AddActivity(QName(fmt.Sprintf("ex:step%d", i)), Attrs{"prov:type": Str("provml:Epoch"), "run:epoch": Int(int64(i)), "run:lr": Float(0.1 / float64(i+1))})
		a.StartTime = when.Add(time.Duration(i) * time.Minute)
		a.EndTime = a.StartTime.Add(30 * time.Second)
	}
	for i := range 4 {
		d.AddAgent(QName(fmt.Sprintf("ex:agent%d", i)), Attrs{"provml:name": Str(fmt.Sprintf("agent %d", i)), "run:rank": Int(int64(i))})
	}
	for i := range 5 {
		d.Used(QName(fmt.Sprintf("ex:step%d", i)), QName(fmt.Sprintf("ex:data%d", i)), when)
		d.WasGeneratedBy(QName(fmt.Sprintf("ex:data%d", i+4)), QName(fmt.Sprintf("ex:step%d", i)), time.Time{}).Attrs["run:role"] = Str("output")
		d.WasAssociatedWith(QName(fmt.Sprintf("ex:step%d", i)), QName(fmt.Sprintf("ex:agent%d", i%4)))
	}
	d.WasDerivedFrom("ex:data8", "ex:data0")
	return d
}

// TestAppendBinaryCanonical: one document encodes to the same bytes
// every time, whatever order its maps iterate in, and the document its
// PROV-JSON decodes to (relations by kind, then id) to what
// TranscodeJSON writes for that PROV-JSON.
func TestAppendBinaryCanonical(t *testing.T) {
	for name, d := range map[string]*Document{"many elements": manyElementsDoc(), "kitchen": fuzzSeedDocs()[1]} {
		first := AppendBinary(nil, d)
		for i := range 100 {
			if got := AppendBinary(nil, d); !bytes.Equal(got, first) {
				t.Fatalf("%s: encoding %d differs from the first:\n%x\n%x", name, i+1, got, first)
			}
		}
		j, err := d.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseJSON(j)
		if err != nil {
			t.Fatal(err)
		}
		want := AppendBinary(nil, back)
		if got, _, _, err := transcodeText(nil, j); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: TranscodeJSON of its JSON: %v\n%x\n%x", name, err, got, want)
		}
	}
}

// TestValidateErrorDeterministic: a document with two bad entity names
// (and a warning) gets one error text from Validate, run after run, and
// the transcoder's is the same.
func TestValidateErrorDeterministic(t *testing.T) {
	raw := []byte(`{"entity":{"ex:fine":{},"zz:warned":{},"nocolon":{},"alsobad:":{}}}`)
	_, _, invalid, err := transcodeText(nil, raw)
	if err != nil || invalid == nil {
		t.Fatalf("transcoder: invalid %v, err %v", invalid, err)
	}
	const want = `prov: invalid document: 3 issue(s), first: entity has invalid qualified name "alsobad:"`
	if invalid.Error() != want {
		t.Fatalf("transcoder: %q, want %q", invalid, want)
	}
	for i := range 50 {
		doc, err := ParseJSON(raw)
		if err != nil {
			t.Fatal(err)
		}
		issues, err := doc.Validate()
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: Validate says %v, want %q", i, err, want)
		}
		if len(issues) != 3 || issues[1].Message != `entity has invalid qualified name "nocolon"` || issues[2].Severity != "warning" {
			t.Fatalf("run %d: issues %+v", i, issues)
		}
	}
}

// TestValidateCleanAllocatesNothing: the all-valid path of Validate
// allocates nothing.
func TestValidateCleanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops the pooled records walk at random")
	}
	d := manyElementsDoc()
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate of a valid document makes %.0f allocations", allocs)
	}
}

// chainDepths are the chain depths of the benchmark corpus
// (bench/corpus.go).
var chainDepths = []int{12, 64, 256}

// BenchmarkValidate validates the document of a chain of each depth:
// encode into the walk's scratch, then the records check.
func BenchmarkValidate(b *testing.B) {
	for _, depth := range chainDepths {
		d, err := ParseJSON(chainDocJSON(depth))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := d.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeDocument is the library put's encode and check of the
// same documents, into a reused buffer.
func BenchmarkEncodeDocument(b *testing.B) {
	for _, depth := range chainDepths {
		d, err := ParseJSON(chainDocJSON(depth))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for range b.N {
				var invalid error
				if buf, invalid = EncodeDocument(buf[:0], d); invalid != nil {
					b.Fatal(invalid)
				}
			}
		})
	}
}

// BenchmarkTranscodeJSON is the service's decode, check and encode of
// the same documents' PROV-JSON, into a reused buffer.
func BenchmarkTranscodeJSON(b *testing.B) {
	for _, depth := range chainDepths {
		data := chainDocJSON(depth)
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			var buf []byte
			for range b.N {
				sc := jsonscan.New(data)
				blob, _, invalid, err := TranscodeJSON(buf[:0], &sc)
				if err != nil || invalid != nil {
					b.Fatal(err, invalid)
				}
				buf = blob
			}
		})
	}
}
