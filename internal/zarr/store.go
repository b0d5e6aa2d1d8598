// Package zarr implements a Zarr-v2-style chunked, compressed,
// N-dimensional array store on top of pluggable key/value stores.
//
// It reproduces the storage mechanism the paper relies on for offloading
// bulky metric time series out of PROV-JSON (§4, Table 1): array metadata
// is a small JSON document (".zarray"), data is split into fixed-size
// chunks stored under "c0.c1..." keys, and each chunk is run through a
// codec (gzip or raw). Arrays are written into a map in memory
// (MemStore), which WriteZip saves as one zip archive of stored members;
// ZipStore reads such an archive back.
//
// Chunks of a compressed array are byte-shuffled first (the Zarr v2
// "shuffle" filter, listed under "filters" in ".zarray"): metric columns
// are eight-byte elements whose high bytes barely change, and deflate
// does several times less work, for a smaller result, on byte planes
// than on interleaved elements. Create adds the filter whenever the
// codec compresses; after that the stored metadata alone selects the
// layout, so an array written without the filter is read without it.
package zarr

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Store is the key/value abstraction arrays persist into. Keys are
// slash-separated relative paths.
type Store interface {
	// Get returns the value for key, or an error wrapping ErrNotExist
	// when the key is absent.
	Get(key string) ([]byte, error)
	// Set writes the value for key, replacing any previous value.
	Set(key string, value []byte) error
	// List returns all keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
}

// ErrNotExist is the error stores wrap for a missing key. A missing
// chunk reads as fill values and a missing ".zattrs" as no attributes;
// any other Get failure is reported, never read as absence.
var ErrNotExist = errors.New("zarr: key does not exist")

// MemStore is an in-memory Store safe for concurrent use.
type MemStore struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{data: make(map[string][]byte)}
}

// Get implements Store.
func (m *MemStore) Get(key string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.data[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, key)
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Set implements Store.
func (m *MemStore) Set(key string, value []byte) error {
	cp := make([]byte, len(value))
	copy(cp, value)
	m.mu.Lock()
	m.data[key] = cp
	m.mu.Unlock()
	return nil
}

// List implements Store.
func (m *MemStore) List(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var keys []string
	for k := range m.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// TotalBytes returns the sum of stored value sizes (useful for Table 1).
func (m *MemStore) TotalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, v := range m.data {
		n += int64(len(v))
	}
	return n
}
