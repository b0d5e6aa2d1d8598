package provstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prov"
	"repro/internal/wal"
)

// stateOf is snapshotJSON of a store holding docs.
func stateOf(t *testing.T, docs map[string]*prov.Document) map[string]string {
	t.Helper()
	s := New()
	for id, d := range docs {
		if err := s.Put(id, d); err != nil {
			t.Fatal(err)
		}
	}
	return snapshotJSON(t, s)
}

// dirFiles is every regular file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// refusedThenUpgraded holds dir, as an earlier build left it, to the
// format contract. Open refuses it with ErrLegacyFormat, naming
// `yprov upgrade`, and writes nothing: every file keeps its bytes — a
// segment may lose a torn tail, which every open repairs — and the only
// files that may appear are the lock and an empty segment. Upgrade then
// leaves bytes the serving decoders read, and the store Open returns on
// them, which holds the documents Upgrade counted, is handed back.
func refusedThenUpgraded(t *testing.T, dir string, d Durability) *Store {
	t.Helper()
	before := dirFiles(t, dir)
	s, err := Open(dir, d)
	if !errors.Is(err, ErrLegacyFormat) || s != nil {
		t.Fatalf("Open of an earlier build's directory: store %v, err %v; want ErrLegacyFormat", s != nil, err)
	}
	if !strings.Contains(err.Error(), "yprov upgrade") {
		t.Fatalf("refusal %q does not name yprov upgrade", err)
	}
	after := dirFiles(t, dir)
	for name, b := range after {
		old, ok := before[name]
		switch {
		case !ok && (name == "LOCK" || strings.HasSuffix(name, ".wal") && len(b) == 0):
			// the directory lock, or the segment wal.Open starts
		case !ok:
			t.Fatalf("the refused Open wrote %s", name)
		case !bytes.HasPrefix(old, b) || len(b) != len(old) && !strings.HasSuffix(name, ".wal"):
			t.Fatalf("the refused Open changed %s", name)
		}
	}
	for name := range before {
		if _, ok := after[name]; !ok {
			t.Fatalf("the refused Open removed %s", name)
		}
	}
	n, err := Upgrade(dir)
	if err != nil {
		t.Fatalf("Upgrade: %v", err)
	}
	assertCurrentFormat(t, dir)
	s = openTemp(t, dir, d)
	if s.Count() != n {
		t.Fatalf("Upgrade counted %d documents, Open recovers %d", n, s.Count())
	}
	return s
}

// assertCurrentFormat: dir holds one snapshot, and it and every record
// in every segment decode on the serving path — no '{' record,
// snapshot or doc blob is left.
func assertCurrentFormat(t *testing.T, dir string) {
	t.Helper()
	if snaps, err := filepath.Glob(filepath.Join(dir, "*.snap")); err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots %v (%v), want one", snaps, err)
	}
	if _, err := decodeSnapshot(snapshotOnDisk(t, dir)); err != nil {
		t.Fatalf("the snapshot: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		sc := wal.NewStreamScanner(bytes.NewReader(raw))
		for {
			r, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
			if _, err := decodeRecordPayload(r.Payload, r.Seq); err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
		}
	}
}

// writePreWAL writes docs as a pre-WAL build left them: one PROV-JSON
// file each, under the given file name.
func writePreWAL(t *testing.T, dir string, files map[string]*prov.Document) {
	t.Helper()
	for name, d := range files {
		raw, err := d.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveLoadRoundTrip: a pre-WAL directory is refused, and once
// upgraded its documents come back Equal under their ids, escaped file
// names included, with lineage working.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writePreWAL(t, dir, map[string]*prov.Document{"run%0020one.json": trainingDoc(), "run-two.json": trainingDoc()})

	s := refusedThenUpgraded(t, dir, Durability{})
	if s.Count() != 2 {
		t.Fatalf("upgraded %d documents, want 2", s.Count())
	}
	got, ok := s.Get("run one")
	if !ok {
		t.Fatal("escaped id lost in the upgrade")
	}
	if !got.Equal(trainingDoc()) {
		t.Error("document changed through the upgrade")
	}
	anc, err := s.Lineage("run-two", "ex:model", Ancestors, 0)
	if err != nil || len(anc) == 0 {
		t.Fatalf("lineage after the upgrade: %v %v", anc, err)
	}
}

// TestUpgradeMissingDir: upgrading a directory that does not exist is
// an error, and creates nothing.
func TestUpgradeMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nope")
	if n, err := Upgrade(dir); err == nil {
		t.Fatalf("Upgrade of a missing directory = %d, nil", n)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("the failed upgrade left %s (%v)", dir, err)
	}
}

// TestLoadSkipsGarbageGracefully: a pre-WAL file that is not PROV-JSON
// fails the upgrade, which writes nothing, so Open still refuses the
// directory.
func TestLoadSkipsGarbageGracefully(t *testing.T) {
	dir := t.TempDir()
	writePreWAL(t, dir, map[string]*prov.Document{"good.json": testDoc(t, "good")})
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	if _, err := Upgrade(dir); err == nil {
		t.Fatal("corrupt document must surface an error")
	}
	if after := dirFiles(t, dir); len(after) != len(before) {
		t.Fatalf("the failed upgrade left %d files, want the %d it found", len(after), len(before))
	}
	if _, err := Open(dir, Durability{}); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("Open after a failed upgrade: %v, want ErrLegacyFormat", err)
	}
}

// TestEncodeDecodeID: decodeID reads the file names pre-WAL builds gave
// documents back as their ids.
func TestEncodeDecodeID(t *testing.T) {
	for name, id := range map[string]string{
		"plain":           "plain",
		"has%0020space":   "has space",
		"x%002Fy%003Az":   "x/y:z",
		"%00FCn%00EFcode": "ünïcode",
		"trailing%0025":   "trailing%",
	} {
		if got := decodeID(name); got != id {
			t.Errorf("file name %q decodes to %q, want %q", name, got, id)
		}
	}
}

// TestSaveLoadKeepsEveryID: a pre-WAL directory, with each file named
// after its document's id as the last PROV-JSON export named it, upgrades
// to every document under its own id — ids holding runes beyond the
// BMP or bytes that are not UTF-8 included, two of which once shared a
// file name. A file named by an earlier build for an id of BMP runes
// upgrades under that id.
func TestSaveLoadKeepsEveryID(t *testing.T) {
	names := map[string]string{
		"run/😀":        "run%002F%D83D%DE00",
		"run/ὠ0":       "run%002F%1F600",
		"a\xffb":       "a%%FFb",
		"a\xff\xfeb":   "a%%FF%%FEb",
		"run/�":        "run%002F%FFFD",
		"%%41":         "%0025%002541",
		"%D83D%DE00":   "%0025D83D%0025DE00",
		"run/café 1":   "run%002Fcaf%00E9%00201",
		"plain-id_1.x": "plain-id_1.x",
	}
	files := map[string]*prov.Document{}
	want := map[string]*prov.Document{}
	i := 0
	for id, name := range names {
		doc := testDoc(t, fmt.Sprintf("doc-%d", i))
		i++
		files[name+".json"] = doc
		want[id] = doc
	}
	dir := t.TempDir()
	writePreWAL(t, dir, files)

	s := refusedThenUpgraded(t, dir, Durability{})
	sameState(t, snapshotJSON(t, s), stateOf(t, want), "upgraded pre-WAL directory")
}

// TestUpgradeInterrupted: an upgrade stopped at any point leaves a
// directory that either Open reads as upgraded or Open refuses and a
// rerun completes, and an upgrade rerun changes nothing.
func TestUpgradeInterrupted(t *testing.T) {
	docs := map[string]*prov.Document{"alpha": compatDoc(t, "alpha", 2), "beta": compatDoc(t, "beta", 1)}
	want := stateOf(t, docs)

	t.Run("snapshot landed, compaction did not", func(t *testing.T) {
		dir := t.TempDir()
		writeLegacyJournal(t, dir,
			legacyPutPayload(t, "alpha", docs["alpha"], 0),
			legacyPutPayload(t, "doomed", docs["beta"], 0),
			legacyPutPayload(t, "beta", docs["beta"], 0),
			legacyDeletePayload(t, "doomed"),
		)
		old := dirFiles(t, dir)
		if _, err := Upgrade(dir); err != nil {
			t.Fatal(err)
		}
		// Put back what compaction removed: the JSON records, all
		// covered by the upgrade's snapshot.
		for name, b := range old {
			if _, err := os.Stat(filepath.Join(dir, name)); os.IsNotExist(err) {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		s := openTemp(t, dir, Durability{SnapshotEvery: -1})
		sameState(t, snapshotJSON(t, s), want, "open beside the uncompacted JSON records")
		if err := s.Put("gamma", compatDoc(t, "gamma", 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = openTemp(t, dir, Durability{SnapshotEvery: -1})
		if _, ok := s.Get("gamma"); !ok || s.Count() != 3 {
			t.Fatalf("reopen holds %d documents (gamma %v), want alpha, beta, gamma", s.Count(), ok)
		}
	})

	t.Run("pre-WAL snapshot did not land", func(t *testing.T) {
		dir := t.TempDir()
		writePreWAL(t, dir, map[string]*prov.Document{"alpha.json": docs["alpha"], "beta.json": docs["beta"]})
		// What a kill -9 inside wal.WriteSnapshotTo leaves: a partial
		// temp file under the snapshot's name.
		if err := os.WriteFile(filepath.Join(dir, "0000000000000001.snap.tmp4242"), []byte("YPWSNAP1\x01"), 0o644); err != nil {
			t.Fatal(err)
		}
		s := refusedThenUpgraded(t, dir, Durability{})
		sameState(t, snapshotJSON(t, s), want, "rerun upgrade")
	})

	t.Run("twice is once", func(t *testing.T) {
		for name, write := range map[string]func(dir string){
			"legacy journal": func(dir string) {
				writeLegacyJournal(t, dir,
					legacyPutPayload(t, "alpha", docs["alpha"], 0),
					legacyBatchPayload(t, map[string]*prov.Document{"beta": docs["beta"]}),
				)
			},
			"pre-WAL": func(dir string) {
				writePreWAL(t, dir, map[string]*prov.Document{"alpha.json": docs["alpha"], "beta.json": docs["beta"]})
			},
		} {
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				write(dir)
				s := refusedThenUpgraded(t, dir, Durability{})
				sameState(t, snapshotJSON(t, s), want, "upgraded once")
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if n, err := Upgrade(dir); err != nil || n != len(docs) {
					t.Fatalf("second upgrade: %d documents, %v", n, err)
				}
				assertCurrentFormat(t, dir)
				sameState(t, snapshotJSON(t, openTemp(t, dir, Durability{})), want, "upgraded twice")
			})
		}
	})
}

// TestBundleInJournaledDirIsNotADocument: a diagnostic bundle the
// server dumped into its data directory on SIGQUIT is a JSON file in a
// journaled directory. Neither Open nor Upgrade takes it for a
// document, and it stays where it was, byte for byte.
func TestBundleInJournaledDirIsNotADocument(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, dir, Durability{})
	docs := map[string]*prov.Document{"a": testDoc(t, "a"), "b": testDoc(t, "b")}
	for id, d := range docs {
		if err := s.Put(id, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	bundle := filepath.Join(dir, "bundle-20261018T000000.000Z.json")
	body := []byte(`{"reason":"sigquit","captured_at":"2026-10-18T00:00:00Z","traces":[],"config":{"data_dir":"data"}}`)
	if err := os.WriteFile(bundle, body, 0o644); err != nil {
		t.Fatal(err)
	}
	want := stateOf(t, docs)

	s = openTemp(t, dir, Durability{})
	sameState(t, snapshotJSON(t, s), want, "open beside a bundle")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := Upgrade(dir); err != nil || n != len(docs) {
		t.Fatalf("Upgrade beside a bundle: %d documents, %v; want %d", n, err, len(docs))
	}
	sameState(t, snapshotJSON(t, openTemp(t, dir, Durability{})), want, "upgrade beside a bundle")
	if got, err := os.ReadFile(bundle); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("the bundle file changed: %v", err)
	}
}
