package provservice

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/provclient"
	"repro/internal/provstore"
)

// TestCloseDrainsAndRefuses: Close waits for in-flight requests, new
// requests get 503, and the store ends up flushed and closed.
func TestCloseDrainsAndRefuses(t *testing.T) {
	dir := t.TempDir()
	store, err := provstore.Open(dir, provstore.Durability{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(store)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	c := provclient.New(srv.URL)

	if err := c.Upload("before-close", testDoc()); err != nil {
		t.Fatal(err)
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	resp, err := http.Get(srv.URL + "/api/v0/documents")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close request got %d, want 503", resp.StatusCode)
	}

	// The document acknowledged before Close survives a reopen.
	s2, err := provstore.Open(dir, provstore.Durability{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := storeGet(s2, "before-close"); !ok {
		t.Fatal("acknowledged document lost across Close + reopen")
	}
}

// TestCloseUnderLoad races Close against a burst of uploads: every
// upload must either be acknowledged (201, and then be durable) or
// cleanly refused — never half-applied or hung.
func TestCloseUnderLoad(t *testing.T) {
	dir := t.TempDir()
	store, err := provstore.Open(dir, provstore.Durability{})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(store)
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	c := provclient.New(srv.URL)
	doc := testDoc()

	const writers, per = 4, 10
	acked := make([][]string, writers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < per; i++ {
				id := string(rune('a'+w)) + "-" + string(rune('0'+i))
				if err := c.Upload(id, doc); err == nil {
					acked[w] = append(acked[w], id)
				}
			}
		}(w)
	}
	close(start)
	_ = svc.Close() // races with the uploads
	wg.Wait()

	s2, err := provstore.Open(dir, provstore.Durability{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for w := range acked {
		for _, id := range acked[w] {
			if _, ok := storeGet(s2, id); !ok {
				t.Fatalf("acknowledged upload %q missing after close", id)
			}
		}
	}
}
