package prov

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

// oracleValidate is the map walk Validate was before it ran the
// records check (docRecords.validate): the same issues, in the same
// order, looked up in the document's maps. FuzzValidateMatchesOracle
// holds Validate to it.
func oracleValidate(d *Document) ([]ValidationIssue, error) {
	l := issueLog{keep: true}
	bound := func(q QName) bool {
		_, ok := d.Namespaces.Lookup(q.Prefix())
		return ok
	}
	for _, id := range d.EntityIDs() {
		l.checkQName("entity", id, bound(id))
	}
	for _, id := range d.AgentIDs() {
		l.checkQName("agent", id, bound(id))
	}
	for _, id := range d.ActivityIDs() {
		a := d.Activities[id]
		l.checkQName("activity", id, bound(id))
		l.checkTimes(id, a.StartTime, a.EndTime)
	}
	for _, r := range d.Relations {
		want, ok := relationKinds[r.Kind]
		if !ok {
			l.add("error", "relation %s has unsupported kind %q", r.ID, r.Kind)
			continue
		}
		l.checkEnd(r.ID, r.Kind, "subject", r.Subject, d.NodeKind(r.Subject), want.subjClass)
		l.checkEnd(r.ID, r.Kind, "object", r.Object, d.NodeKind(r.Object), want.objClass)
	}
	return l.issues, l.err()
}

// The pools validateCaseDoc picks from: well-formed ids under bound and
// unbound prefixes, malformed ones, one the document never declares;
// known and unknown relation kinds; zero and non-zero times; and
// prefixes to bind.
var (
	validateIDs   = []QName{"ex:a", "ex:b", "ex:c", "zz:d", "zz:e", "bad", "ex:", ":x", "", "ex:missing"}
	validateKinds = append(slices.Clone(AllRelationKinds), "wasFooedBy", "")
	validateTimes = []time.Time{{}, time.Date(2025, 1, 2, 3, 4, 5, 6, time.UTC), time.Date(2025, 1, 2, 4, 4, 5, 6, time.UTC), time.Date(2025, 1, 2, 3, 4, 5, 6, time.FixedZone("X", 3600))}
	validatePfxs  = []string{"zz", "ex", ""}
)

// validateCaseDoc builds a document through the API from data, read as
// steps of three bytes: an operation, then two operands, each taken
// modulo the pool it picks from. ex:missing is never declared.
func validateCaseDoc(data []byte) *Document {
	pick := func(n int, b byte) int { return int(b) % n }
	id := func(b byte) QName { return validateIDs[pick(len(validateIDs)-1, b)] }
	end := func(b byte) QName { return validateIDs[pick(len(validateIDs), b)] }
	d := NewDocument()
	for ; len(data) >= 3; data = data[3:] {
		op, x, y := data[0], data[1], data[2]
		switch op % 5 {
		case 0:
			d.AddEntity(id(x), Attrs{"ex:n": Int(int64(y))})
		case 1:
			d.AddAgent(id(x), nil)
		case 2:
			a := d.AddActivity(id(x), nil)
			a.StartTime = validateTimes[pick(len(validateTimes), y)]
			a.EndTime = validateTimes[pick(len(validateTimes), y>>4)]
		case 3:
			d.AddRelation(Relation{Kind: validateKinds[pick(len(validateKinds), op/5)], Subject: end(x), Object: end(y)})
		case 4:
			d.Namespaces.Register(validatePfxs[pick(len(validatePfxs), x)], "http://example.org/"+string(rune('a'+y%26)))
		}
	}
	return d
}

// validateSeeds are programs for validateCaseDoc, one per kind of issue
// and a clean one.
var validateSeeds = [][]byte{
	// clean: entity ex:a, activity ex:b, used ex:b → ex:a
	{0, 0, 0, 2, 1, 0x11, 3, 1, 0},
	// unbound prefix only: warnings
	{0, 3, 0, 1, 4, 0},
	// invalid ids: bad, ex:, :x and the empty one
	{0, 5, 0, 1, 6, 0, 2, 7, 0, 0, 8, 0},
	// one id in two classes, and a relation naming it
	{0, 0, 0, 1, 0, 0, 2, 0, 0, 3 + 5*4, 0, 0},
	// unknown relation kinds: wasFooedBy and the empty one
	{0, 0, 0, 3 + 5*12, 0, 0, 3 + 5*13, 0, 0},
	// dangling and wrong-class endpoints
	{0, 0, 0, 1, 1, 0, 3, 0, 9, 3 + 5, 1, 0},
	// an activity that ends before it starts, and one with zero times
	{2, 0, 0x12, 2, 1, 0x10, 2, 2, 0x03},
	// binding the unbound prefix, then using it
	{4, 0, 0, 0, 3, 0, 4, 3, 1, 0, 5, 0},
}

// FuzzValidateMatchesOracle holds Validate to the map walk it replaced
// (oracleValidate), over documents built through the API: the same
// issues in the same order and the same error text. EncodeDocument
// reports that error too, and writes AppendBinary's blob.
func FuzzValidateMatchesOracle(f *testing.F) {
	for _, s := range validateSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkValidate(t, validateCaseDoc(data))
	})
}

// TestValidateMatchesOracle runs the oracle check over the documents
// other tests build, which carry attributes of every kind.
func TestValidateMatchesOracle(t *testing.T) {
	for _, d := range append(fuzzSeedDocs(), manyElementsDoc(), sampleDoc(t)) {
		checkValidate(t, d)
	}
}

// checkValidate holds Validate and EncodeDocument on d to the oracle.
func checkValidate(t *testing.T, d *Document) {
	t.Helper()
	issues, err := d.Validate()
	want, wantErr := oracleValidate(d)
	if !slices.Equal(issues, want) || errText(err) != errText(wantErr) {
		t.Fatalf("Validate: %v\n%+v\noracle: %v\n%+v", err, issues, wantErr, want)
	}
	prefix := []byte("dst")
	blob, invalid := EncodeDocument(prefix[:len(prefix):len(prefix)], d)
	if errText(invalid) != errText(wantErr) {
		t.Fatalf("EncodeDocument: %v, oracle: %v", invalid, wantErr)
	}
	if !bytes.HasPrefix(blob, prefix) || !bytes.Equal(blob[len(prefix):], AppendBinary(nil, d)) {
		t.Fatalf("EncodeDocument's blob\n%x\nAppendBinary's\n%x", blob, AppendBinary(nil, d))
	}
}
