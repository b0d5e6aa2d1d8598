package shardbench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/prov"
	"repro/internal/provservice"
	"repro/internal/provstore"
)

// lineageCachedDepth sizes the chain the cached-lineage benchmark
// traverses: deep enough that the fill (graph walk + JSON encode) is
// the dominant cost a warm hit avoids.
const lineageCachedDepth = 512

// LineageCached measures the full HTTP read path of one lineage query
// through the version-keyed response cache, in three modes:
//
//	cold        — the cache is purged before every request, so each one
//	              pays the full graph walk and JSON encode (plus the
//	              cache store).
//	warm        — the same query repeats against an untouched store;
//	              after the first fill every request is a cache hit.
//	invalidated — every request is preceded by a rewrite of the
//	              queried document itself (outside the timer; two
//	              pre-built copies, alternating), the one write that
//	              moves the version the query is cached under: the
//	              worst case where caching buys nothing and costs a
//	              store per request. A write to any other document
//	              would leave the entry valid and measure hits.
//
// Requests go through Service.ServeHTTP with in-memory recorders — the
// whole middleware chain and encode path are measured, but no sockets.
func LineageCached(mode string) func(b *testing.B) {
	return func(b *testing.B) {
		store := provstore.NewSharded(1)
		if err := store.Put("chain", ChainDoc(lineageCachedDepth)); err != nil {
			b.Fatal(err)
		}
		svc := provservice.New(store, provservice.WithReadCache(1024, 64<<20))
		path := fmt.Sprintf("/api/v0/documents/chain/lineage?node=ex:e%d&direction=ancestors",
			lineageCachedDepth-1)
		versions := [2]*prov.Document{ChainDoc(lineageCachedDepth), ChainDoc(lineageCachedDepth)}
		if mode == "warm" {
			// Pay the compulsory miss outside the timer so every measured
			// request is a hit, even on the b.N=1 calibration run.
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != 200 {
				b.Fatalf("prime: HTTP %d: %s", rec.Code, rec.Body.String())
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			switch mode {
			case "cold":
				svc.ReadCache().Purge()
			case "invalidated":
				// The rewrite installs a new entry under a new seq, so the
				// cached response is stale by the time the request arrives.
				// Apply installs the document uncopied; alternating two
				// keeps the one handed over distinct from the one stored.
				b.StopTimer()
				if err := store.Apply(context.Background(), []provstore.Op{{ID: "chain", Doc: versions[i%2]}}); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			req := httptest.NewRequest("GET", path, nil)
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
			}
		}
		b.StopTimer()
		switch st := svc.ReadCache().Stats(); {
		case mode == "warm" && st.Hits == 0:
			b.Fatal("warm mode recorded no cache hits")
		case mode == "invalidated" && st.Hits != 0:
			b.Fatalf("invalidated mode recorded %d cache hits", st.Hits)
		}
	}
}

// LineageCachedModes lists the benchmark's sub-modes in display order.
func LineageCachedModes() []string { return []string{"cold", "warm", "invalidated"} }
