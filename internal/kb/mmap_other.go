//go:build !linux

package kb

import (
	"errors"
	"os"
)

// mmapSupported gates the in-place v2 read path at compile time; on
// platforms without a wired-up mmap, LoadSnapshotFile falls back to
// the portable decode path.
const mmapSupported = false

func mapFile(f *os.File, size int64) ([]byte, error) {
	return nil, errors.New("kb: mmap not supported on this platform")
}

func fileVersion(st os.FileInfo) (mapKey, bool) { return mapKey{}, false }
