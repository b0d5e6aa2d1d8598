package provservice

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/provstore"
)

// reply is what a GET answered.
type reply struct {
	status int
	etag   string
	body   string
}

func getReply(t *testing.T, svc http.Handler, path string) reply {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	body, _ := io.ReadAll(rec.Body)
	return reply{rec.Code, rec.Header().Get("ETag"), string(body)}
}

// checkpointRunDoc is run i: every run uses the shared dataset, its
// times are in a non-UTC zone, and its model carries a typed attribute.
func checkpointRunDoc(i int) *prov.Document {
	zone := time.FixedZone("CEST", 2*3600)
	d := prov.NewDocument()
	run, model := prov.QName(fmt.Sprintf("ex:run-%d", i)), prov.QName(fmt.Sprintf("ex:model-%d", i))
	d.AddEntity("ex:dataset", prov.Attrs{"prov:type": prov.Str("provml:Dataset")})
	d.AddEntity(model, prov.Attrs{"prov:type": prov.Str("provml:Model"), "ex:lr": prov.Float(0.5), "ex:owner": prov.Str("team")})
	act := d.AddActivity(run, nil)
	act.StartTime = time.Date(2026, 3, 1, 9, i, 0, 123000, zone)
	act.EndTime = time.Date(2026, 3, 1, 11, i, 0, 0, zone)
	d.Used(run, "ex:dataset", time.Date(2026, 3, 1, 9, i, 1, 0, zone))
	d.WasGeneratedBy(model, run, time.Time{})
	return d
}

// TestRepliesSurviveBlobOnlyEntries: every entry holds its document as
// its blob alone, and no reply changes across a checkpoint, which
// concatenates the blobs, or a restart, which builds the entries from
// the snapshot's and the journal's. Each
// document's GET (body and ETag), lineage, subgraph and explorer
// replies, and the store-wide searches and lineage, read the same
// before the checkpoint and after it. After a restart the bodies read
// the same again, and so do the ETags of the documents the journal tail
// rewrote; a document only the snapshot holds is versioned with the
// snapshot's sequence from then on (TestRecoveryRestoresEntrySeqs), which
// its ETag names.
func TestRepliesSurviveBlobOnlyEntries(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	open := func() (*provstore.Store, *Service) {
		t.Helper()
		store, err := provstore.Open(dir, provstore.Durability{SnapshotEvery: -1, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return store, New(store)
	}
	store, svc := open()
	for i := 0; i < n; i++ {
		if err := store.Put(fmt.Sprintf("run-%d", i), checkpointRunDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	// One more through the batch route, journaled as its wire bytes.
	raw, err := checkpointRunDoc(n).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	serveBatch(t, svc, []byte(fmt.Sprintf(`{"id":"run-%d","doc":%s}`+"\n", n, raw)))

	paths := []string{
		"/api/v0/lineage?node=ex:dataset&direction=descendants",
		"/api/v0/search?type=provml:Model",
		"/api/v0/search?key=ex:owner&value=team",
		"/api/v0/search?key=prov:type&value=provml:Dataset",
	}
	for i := 0; i <= n; i++ {
		id := fmt.Sprintf("run-%d", i)
		paths = append(paths,
			"/api/v0/documents/"+id,
			fmt.Sprintf("/api/v0/documents/%s/lineage?node=ex:model-%d&direction=ancestors", id, i),
			"/api/v0/documents/"+id+"/lineage?node=ex:dataset&direction=descendants",
			fmt.Sprintf("/api/v0/documents/%s/subgraph?node=ex:run-%d&hops=1", id, i),
			"/explorer/"+id,
		)
	}
	replies := func(svc http.Handler) map[string]reply {
		t.Helper()
		out := map[string]reply{}
		for _, p := range paths {
			if r := getReply(t, svc, p); r.status != http.StatusOK {
				t.Fatalf("GET %s: %d %s", p, r.status, r.body)
			} else {
				out[p] = r
			}
		}
		return out
	}
	same := func(label string, got, want map[string]reply, sameETag func(path string) bool) {
		t.Helper()
		for p, w := range want {
			g := got[p]
			if g.body != w.body {
				t.Errorf("%s: GET %s body\n%s\nwant\n%s", label, p, g.body, w.body)
			}
			if sameETag(p) && g.etag != w.etag {
				t.Errorf("%s: GET %s ETag %s, want %s", label, p, g.etag, w.etag)
			}
		}
	}
	always := func(string) bool { return true }

	before := replies(svc)
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapSeq := store.Version()
	same("after the checkpoint", replies(svc), before, always)

	// The journal tail rewrites run-0 with the bytes it already holds.
	if err := store.Put("run-0", checkpointRunDoc(0)); err != nil {
		t.Fatal(err)
	}
	tail := replies(svc)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store, restarted := open()
	defer store.Close()
	restarted.etagEpoch = svc.etagEpoch // the same server run, as far as validators go
	after := replies(restarted)
	same("after the restart", after, tail, func(p string) bool { return strings.Contains(p, "/run-0") })
	for p, r := range after {
		if r.etag == "" || strings.Contains(p, "/run-0") {
			continue
		}
		want := splitETag(t, tail[p].etag)
		want[1] = snapSeq
		if got := splitETag(t, r.etag); got != want {
			t.Errorf("after the restart: GET %s ETag %s, want %s with the snapshot's version %d", p, r.etag, tail[p].etag, snapSeq)
		}
	}
}

// splitETag parses an ETag "<epoch>-<version>-<hash>".
func splitETag(t *testing.T, etag string) (parts [3]uint64) {
	t.Helper()
	if _, err := fmt.Sscanf(etag, "\"%x-%d-%x\"", &parts[0], &parts[1], &parts[2]); err != nil {
		t.Fatalf("ETag %s: %v", etag, err)
	}
	return parts
}
