package provstore

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// residentGauges reads the yprov_store_resident_bytes series s exposes,
// keyed by their rendered labels.
func residentGauges(t *testing.T, s *Store) map[string]int64 {
	t.Helper()
	reg := obs.NewRegistry()
	s.RegisterObs(reg)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	got := map[string]int64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, "yprov_store_resident_bytes{")
		if !ok {
			continue
		}
		labels, value, _ := strings.Cut(rest, "} ")
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("gauge line %q: %v", line, err)
		}
		got[labels] = n
	}
	return got
}

// residentSums sums the blob and index bytes of each shard's entries,
// keyed as residentGauges keys its series.
func residentSums(s *Store) map[string]int64 {
	want := map[string]int64{}
	for i, sh := range s.shards {
		var blob, index int64
		for _, e := range sh.entries(nil) {
			blob += int64(len(e.blob))
			index += int64(e.ix.Bytes())
		}
		want[fmt.Sprintf(`part="blob",shard="%d"`, i)] = blob
		want[fmt.Sprintf(`part="index",shard="%d"`, i)] = index
	}
	return want
}

// TestResidentBytesGauges: each shard's resident-bytes gauges equal the
// sums over its entries after puts, replacements, deletes, a checkpoint
// and a reopen from the snapshot and the journal tail.
func TestResidentBytesGauges(t *testing.T) {
	dir := t.TempDir()
	check := func(step string, s *Store) {
		t.Helper()
		got, want := residentGauges(t, s), residentSums(s)
		if len(got) != len(want) {
			t.Fatalf("%s: %d resident-bytes series, want %d", step, len(got), len(want))
		}
		var total int64
		for k, w := range want {
			if got[k] != w {
				t.Errorf("%s: yprov_store_resident_bytes{%s} = %d, the entries sum to %d", step, k, got[k], w)
			}
			total += w
		}
		if s.Count() > 0 && total == 0 {
			t.Errorf("%s: %d documents keep no resident bytes", step, s.Count())
		}
	}

	s := openTemp(t, dir, Durability{SnapshotEvery: -1, Shards: 4})
	check("empty", s)
	fillCorpus(t, s, 40)
	check("put", s)
	for i := 0; i < 8; i++ { // a depth-12 document becomes a depth-256 one and back
		if err := s.Put(fmt.Sprintf("doc-%04d", 8+i), corpusDoc(32*i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(fmt.Sprintf("doc-%04d", 32*i/4), corpusDoc(9)); err != nil {
			t.Fatal(err)
		}
	}
	check("replace", s)
	for i := 0; i < 40; i += 3 {
		if err := s.Delete(fmt.Sprintf("doc-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	check("delete", s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("after-checkpoint", corpusDoc(0)); err != nil {
		t.Fatal(err)
	}
	check("checkpoint", s)
	want := residentSums(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openTemp(t, dir, Durability{SnapshotEvery: -1, Shards: 4})
	check("reopen", s)
	if got := residentSums(s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("reopen: resident bytes %v, before closing %v", got, want)
	}
}
