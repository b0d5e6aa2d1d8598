package provstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := New()
	if err := s.Put("run one", trainingDoc()); err != nil { // id with a space
		t.Fatal(err)
	}
	if err := s.Put("run-two", trainingDoc()); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}

	fresh := New()
	ids, err := fresh.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("loaded ids = %v", ids)
	}
	got, ok := fresh.Get("run one")
	if !ok {
		t.Fatal("escaped id lost on load")
	}
	orig, _ := s.Get("run one")
	if !got.Equal(orig) {
		t.Error("document changed through persistence")
	}
	// Graph projection rebuilt: lineage works after load.
	anc, err := fresh.Lineage("run-two", "ex:model", Ancestors, 0)
	if err != nil || len(anc) == 0 {
		t.Fatalf("lineage after load: %v %v", anc, err)
	}
}

func TestLoadFromMissingDir(t *testing.T) {
	s := New()
	ids, err := s.LoadFrom(filepath.Join(t.TempDir(), "nope"))
	if err != nil || ids != nil {
		t.Fatalf("missing dir should be a clean no-op: %v %v", ids, err)
	}
}

func TestLoadSkipsGarbageGracefully(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New()
	if _, err := s.LoadFrom(dir); err == nil {
		t.Fatal("corrupt document must surface an error")
	}
}

func TestEncodeDecodeID(t *testing.T) {
	for _, id := range []string{"plain", "has space", "x/y:z", "ünïcode", "trailing%"} {
		if got := decodeID(encodeID(id)); got != id {
			t.Errorf("id %q round-tripped to %q (encoded %q)", id, got, encodeID(id))
		}
	}
}

// TestSaveLoadKeepsEveryID: an export names each document's file after
// its id, and loading the directory gives every document back under
// its own id — ids holding runes beyond the BMP or bytes that are not
// UTF-8 included, two of which once shared a file name. A file named
// by an earlier build for an id of BMP runes loads under that id.
func TestSaveLoadKeepsEveryID(t *testing.T) {
	ids := []string{"run/😀", "run/ὠ0", "a\xffb", "a\xff\xfeb", "run/�", "%%41", "%D83D%DE00"}
	s := New()
	want := map[string]string{}
	for i, id := range ids {
		doc := testDoc(t, fmt.Sprintf("doc-%d", i))
		if err := s.Put(id, doc); err != nil {
			t.Fatal(err)
		}
		want[id] = string(mustJSON(t, doc))
	}
	dir := t.TempDir()
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != len(ids) {
		t.Fatalf("export wrote %d files for %d ids (%v)", len(files), len(ids), err)
	}
	// What an earlier build wrote for the id "run/café 1".
	legacy := testDoc(t, "legacy")
	if err := os.WriteFile(filepath.Join(dir, "run%002Fcaf%00E9%00201.json"), mustJSON(t, legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	want["run/café 1"] = string(mustJSON(t, legacy))

	fresh := New()
	if _, err := fresh.LoadFrom(dir); err != nil {
		t.Fatal(err)
	}
	sameState(t, snapshotJSON(t, fresh), want, "loaded export")
}
