package zarr

import (
	"archive/zip"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strings"
)

// A store can also live in one file: a zip archive whose member names
// are the store keys (the Zarr v2 ZipStore layout). The members are
// stored, not deflated — chunks are gzip streams already — so writing
// the archive is one create/write/close however many keys it holds, and
// reading a member is a slice of the file and a CRC check.

// Zip framing per member (local header 30 bytes, central directory
// entry 46, each followed by the name) and the end record.
const (
	zipLocalHeaderLen = 30
	zipDirHeaderLen   = 46
	zipEndLen         = 22
)

// zipDate is 1980-01-01 in MS-DOS form, the earliest valid date: every
// member gets it, so an archive's bytes depend on its keys and values
// alone.
const zipDate = 1<<5 | 1

// WriteZip writes m to path as a zip archive of stored members in key
// order, replacing any file there. Each member's CRC-32 and size go in
// its local header, so there are no data descriptors, and the archive
// is built in one buffer sized up front and written with one call. A
// directory at path is an error; WriteZip never removes anything.
func WriteZip(path string, m *MemStore) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	keys := make([]string, 0, len(m.data))
	size := zipEndLen
	for k, v := range m.data {
		keys = append(keys, k)
		size += zipLocalHeaderLen + zipDirHeaderLen + 2*len(k) + len(v)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.Grow(size)
	zw := zip.NewWriter(&buf)
	for _, k := range keys {
		v := m.data[k]
		w, err := zw.CreateRaw(&zip.FileHeader{
			Name:               k,
			Method:             zip.Store,
			CreatorVersion:     20,
			ReaderVersion:      20,
			ModifiedDate:       zipDate,
			CRC32:              crc32.ChecksumIEEE(v),
			CompressedSize64:   uint64(len(v)),
			UncompressedSize64: uint64(len(v)),
		})
		if err != nil {
			return fmt.Errorf("zarr: archive member %q: %w", k, err)
		}
		if _, err := w.Write(v); err != nil {
			return err
		}
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ZipStore is a read-only Store over an archive WriteZip (or any zip
// tool storing members uncompressed) made. The archive is read into
// memory once; a member is checked against its CRC-32 on every Get.
type ZipStore struct {
	data  []byte
	files map[string]*zip.File
	keys  []string // sorted
}

var errReadOnly = errors.New("zarr: archive store is read-only")

// OpenZip reads the archive at path and indexes its central directory.
func OpenZip(path string) (*ZipStore, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("zarr: archive %s: %w", path, err)
	}
	z := &ZipStore{data: data, files: make(map[string]*zip.File, len(r.File))}
	for _, f := range r.File {
		if _, dup := z.files[f.Name]; !dup {
			z.keys = append(z.keys, f.Name)
		}
		z.files[f.Name] = f
	}
	sort.Strings(z.keys)
	return z, nil
}

// Get implements Store. A member that is compressed, whose sizes
// disagree or run past the end of the file, or whose bytes do not match
// its CRC-32 is an error.
func (z *ZipStore) Get(key string) ([]byte, error) {
	f, ok := z.files[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, key)
	}
	if f.Method != zip.Store || f.CompressedSize64 != f.UncompressedSize64 {
		return nil, fmt.Errorf("zarr: archive member %q is not stored uncompressed", key)
	}
	off, err := f.DataOffset()
	if err != nil {
		return nil, fmt.Errorf("zarr: archive member %q: %w", key, err)
	}
	if off < 0 || off > int64(len(z.data)) || f.CompressedSize64 > uint64(int64(len(z.data))-off) {
		return nil, fmt.Errorf("zarr: archive member %q runs past the end of the file", key)
	}
	v := z.data[off : off+int64(f.CompressedSize64)]
	if crc32.ChecksumIEEE(v) != f.CRC32 {
		return nil, fmt.Errorf("zarr: archive member %q: %w", key, zip.ErrChecksum)
	}
	return bytes.Clone(v), nil
}

// Set implements Store; an archive is not written in place.
func (z *ZipStore) Set(key string, _ []byte) error {
	return fmt.Errorf("%w: set %q", errReadOnly, key)
}

// List implements Store, from the central directory.
func (z *ZipStore) List(prefix string) ([]string, error) {
	var keys []string
	for _, k := range z.keys {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	return keys, nil
}
