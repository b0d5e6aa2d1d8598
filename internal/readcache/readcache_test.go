package readcache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func entry(body string) Entry {
	return Entry{Body: []byte(body), ContentType: "application/json"}
}

func TestHitRequiresMatchingVersion(t *testing.T) {
	c := New(16, 1<<20)
	fills := 0
	fill := func() (Entry, error) { fills++; return entry("v1"), nil }

	e, hit, err := c.Do("k", 1, fill)
	if err != nil || hit || string(e.Body) != "v1" {
		t.Fatalf("first Do: e=%q hit=%v err=%v", e.Body, hit, err)
	}
	e, hit, _ = c.Do("k", 1, fill)
	if !hit || string(e.Body) != "v1" || fills != 1 {
		t.Fatalf("same-version Do should hit: hit=%v fills=%d", hit, fills)
	}
	// The version advanced (the document behind the key was rewritten): the
	// entry is stale and must be recomputed.
	_, hit, _ = c.Do("k", 2, func() (Entry, error) { fills++; return entry("v2"), nil })
	if hit || fills != 2 {
		t.Fatalf("new-version Do must miss: hit=%v fills=%d", hit, fills)
	}
	e, hit, _ = c.Do("k", 2, fill)
	if !hit || string(e.Body) != "v2" {
		t.Fatalf("refilled entry should hit: hit=%v body=%q", hit, e.Body)
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses", st)
	}
}

func TestOlderVersionDoesNotClobberNewer(t *testing.T) {
	c := New(16, 1<<20)
	if _, _, err := c.Do("k", 5, func() (Entry, error) { return entry("new"), nil }); err != nil {
		t.Fatal(err)
	}
	// A laggard that captured version 3 before a writer raced it: it
	// computes privately and must not replace the newer entry.
	e, hit, _ := c.Do("k", 3, func() (Entry, error) { return entry("old"), nil })
	if hit || string(e.Body) != "old" {
		t.Fatalf("laggard should compute privately: hit=%v body=%q", hit, e.Body)
	}
	e, hit, _ = c.Do("k", 5, func() (Entry, error) { return entry("recomputed"), nil })
	if !hit || string(e.Body) != "new" {
		t.Fatalf("newer entry must survive: hit=%v body=%q", hit, e.Body)
	}
}

func TestEntryBound(t *testing.T) {
	c := New(4, 1<<20)
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(k, 1, func() (Entry, error) { return entry(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	// Oldest keys evicted, newest retained.
	if _, ok := c.items["k0"]; ok {
		t.Fatal("k0 should have been evicted")
	}
	if _, ok := c.items["k7"]; !ok {
		t.Fatal("k7 should be cached")
	}
	if st := c.Stats(); st.Evictions != 4 {
		t.Fatalf("evictions = %d, want 4", st.Evictions)
	}
}

func TestByteBound(t *testing.T) {
	c := New(1000, 100)
	body := strings.Repeat("x", 20)
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(k, 1, func() (Entry, error) { return entry(body), nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > 100 {
		t.Fatalf("bytes = %d, exceeds bound", st.Bytes)
	}
	if st.Entries != 5 || st.Evictions != 5 {
		t.Fatalf("stats = %+v, want 5 entries / 5 evictions", st)
	}
}

func TestOversizedBodyBypassed(t *testing.T) {
	c := New(16, 100) // single-entry cap = 25 bytes
	big := strings.Repeat("x", 30)
	if _, _, err := c.Do("big", 1, func() (Entry, error) { return entry(big), nil }); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatal("oversized body must not be cached")
	}
	if st := c.Stats(); st.Bypassed != 1 {
		t.Fatalf("bypassed = %d, want 1", st.Bypassed)
	}
}

func TestDisabledCacheStillServes(t *testing.T) {
	for _, c := range []*Cache{New(0, 1000), New(1000, 0)} {
		e, hit, err := c.Do("k", 1, func() (Entry, error) { return entry("x"), nil })
		if err != nil || hit || string(e.Body) != "x" {
			t.Fatalf("disabled cache Do: e=%q hit=%v err=%v", e.Body, hit, err)
		}
		if c.Len() != 0 {
			t.Fatal("disabled cache must not store")
		}
	}
}

func TestFillErrorNotCached(t *testing.T) {
	c := New(16, 1<<20)
	boom := errors.New("boom")
	if _, _, err := c.Do("k", 1, func() (Entry, error) { return Entry{}, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("errored fill must not be cached")
	}
	e, hit, err := c.Do("k", 1, func() (Entry, error) { return entry("ok"), nil })
	if err != nil || hit || string(e.Body) != "ok" {
		t.Fatalf("retry after error: e=%q hit=%v err=%v", e.Body, hit, err)
	}
	if st := c.Stats(); st.FillErrors != 1 {
		t.Fatalf("fill_errors = %d, want 1", st.FillErrors)
	}
}

func TestSingleFlightCoalesces(t *testing.T) {
	c := New(16, 1<<20)
	var fills atomic.Int32
	gate := make(chan struct{})
	const waiters = 8

	var wg sync.WaitGroup
	results := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := c.Do("hot", 1, func() (Entry, error) {
				fills.Add(1)
				<-gate // park the fill so every other goroutine piles up
				return entry("shared"), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = string(e.Body)
		}(i)
	}
	// Wait until the leader's fill is running, then let the rest pile
	// onto the flight before releasing it.
	for c.Stats().Misses == 0 {
	}
	for int(c.Stats().Misses+c.Stats().Hits) < waiters {
	}
	close(gate)
	wg.Wait()

	if n := fills.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
	for i, r := range results {
		if r != "shared" {
			t.Fatalf("waiter %d got %q", i, r)
		}
	}
	if st := c.Stats(); st.Coalesced == 0 {
		t.Fatalf("expected coalesced waiters, stats = %+v", st)
	}
}
