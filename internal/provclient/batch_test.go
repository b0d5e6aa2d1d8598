package provclient

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/prov"
	"repro/internal/provservice"
	"repro/internal/provstore"
)

func batchDoc(tag string) *prov.Document {
	d := prov.NewDocument()
	model := prov.NewQName("ex", "model-"+tag)
	train := prov.NewQName("ex", "train-"+tag)
	d.AddEntity(model, prov.Attrs{"prov:type": prov.Str("provml:Model")})
	d.AddActivity(train, nil)
	d.WasGeneratedBy(model, train, time.Time{})
	return d
}

func newBatchTestServer(t *testing.T) (*Client, *provstore.Store) {
	t.Helper()
	store := provstore.New()
	srv := httptest.NewServer(provservice.New(store))
	t.Cleanup(srv.Close)
	return New(srv.URL), store
}

func TestUploadBatchRoundTrip(t *testing.T) {
	c, store := newBatchTestServer(t)
	docs := map[string]*prov.Document{}
	for i := 0; i < 7; i++ {
		docs[fmt.Sprintf("doc-%d", i)] = batchDoc(fmt.Sprintf("%d", i))
	}
	if err := c.UploadBatch(docs); err != nil {
		t.Fatal(err)
	}
	if store.Count() != 7 {
		t.Fatalf("stored %d docs, want 7", store.Count())
	}
	if err := c.UploadBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestUploadBatchSurfacesLineErrors(t *testing.T) {
	c, store := newBatchTestServer(t)
	bad := prov.NewDocument()
	bad.AddActivity(prov.NewQName("ex", "run"), nil)
	bad.Used(prov.NewQName("ex", "run"), prov.NewQName("ex", "ghost"), time.Time{})
	err := c.UploadBatch(map[string]*prov.Document{"good": batchDoc("g"), "bad": bad})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BatchError", err)
	}
	if len(be.Lines) != 1 || be.Lines[0].ID != "bad" || be.Status != http.StatusUnprocessableEntity {
		t.Fatalf("BatchError = %+v", be)
	}
	if IsRetryable(err) {
		t.Fatal("batch rejection reported retryable")
	}
	if store.Count() != 0 {
		t.Fatal("rejected batch stored documents")
	}
}
