//go:build linux

package kb

import (
	"os"
	"syscall"
)

// mmapSupported gates the in-place v2 read path at compile time.
const mmapSupported = true

// mapFile maps size bytes of f read-only and shared, so the pages are
// backed by the page cache and shared with every other mapping of the
// same snapshot file.
func mapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 || size != int64(int(size)) {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// fileVersion identifies the file version st describes, for the
// process's mapping table.
func fileVersion(st os.FileInfo) (mapKey, bool) {
	sys, ok := st.Sys().(*syscall.Stat_t)
	if !ok {
		return mapKey{}, false
	}
	return mapKey{dev: uint64(sys.Dev), ino: uint64(sys.Ino), size: st.Size(), mtime: st.ModTime().UnixNano()}, true
}
