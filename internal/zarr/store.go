// Package zarr implements a Zarr-v2-style chunked, compressed,
// N-dimensional array store on top of pluggable key/value stores.
//
// It reproduces the storage mechanism the paper relies on for offloading
// bulky metric time series out of PROV-JSON (§4, Table 1): array metadata
// is a small JSON document (".zarray"), data is split into fixed-size
// chunks stored under "c0.c1..." keys, and each chunk is run through a
// codec (gzip or raw). A store is a directory of files (DirStore), a
// map in memory (MemStore), or one zip archive of stored members
// (WriteZip, ZipStore, read-only); OpenStore picks the reader from what
// is on disk.
//
// Chunks of a compressed array are byte-shuffled first (the Zarr v2
// "shuffle" filter, listed under "filters" in ".zarray"): metric columns
// are eight-byte elements whose high bytes barely change, and deflate
// does several times less work, for a smaller result, on byte planes
// than on interleaved elements. Create adds the filter whenever the
// codec compresses; after that the stored metadata alone selects the
// layout, so an array written without the filter is read and extended
// without it.
package zarr

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
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
	// Delete removes key; deleting a missing key is not an error.
	Delete(key string) error
	// List returns all keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
}

// ErrNotExist is the error stores wrap for a missing key. A missing
// chunk reads as fill values and a missing ".zattrs" as no attributes;
// any other Get failure is reported, never read as absence.
var ErrNotExist = errors.New("zarr: key does not exist")

// IsNotExist reports whether err wraps ErrNotExist.
func IsNotExist(err error) bool { return errors.Is(err, ErrNotExist) }

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

// Delete implements Store.
func (m *MemStore) Delete(key string) error {
	m.mu.Lock()
	delete(m.data, key)
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

// DirStore persists keys as files under a root directory.
type DirStore struct {
	root string
}

// NewDirStore creates (if needed) and opens a directory-backed store.
func NewDirStore(root string) (*DirStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("zarr: create store root: %w", err)
	}
	return &DirStore{root: root}, nil
}

// Root returns the directory backing the store.
func (d *DirStore) Root() string { return d.root }

func (d *DirStore) path(key string) string {
	return filepath.Join(d.root, filepath.FromSlash(key))
}

// Get implements Store.
func (d *DirStore) Get(key string) ([]byte, error) {
	data, err := os.ReadFile(d.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, key)
	}
	return data, err
}

// Set implements Store.
func (d *DirStore) Set(key string, value []byte) error {
	p := d.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, value, 0o644)
}

// Delete implements Store.
func (d *DirStore) Delete(key string) error {
	err := os.Remove(d.path(key))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// List implements Store.
func (d *DirStore) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.Walk(d.root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(d.root, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	sort.Strings(keys)
	return keys, err
}

// TotalBytes returns the total on-disk size of all keys in the store.
func (d *DirStore) TotalBytes() (int64, error) {
	var n int64
	err := filepath.Walk(d.root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
