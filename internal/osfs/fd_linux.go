package osfs

import (
	"fmt"

	"crfs/internal/vfs"
)

// ReadFD implements vfs.FDReader with the file's own descriptor; a range
// past the end is the sender's to find (sendfile(2) stops short there).
func (f *file) ReadFD(off, n int64, send func(fd uintptr) error) (bool, error) {
	if !f.flag.Readable() {
		return false, fmt.Errorf("osfs: read %s: %w", f.name, vfs.ErrReadOnly)
	}
	if send == nil {
		return true, nil
	}
	return true, send(f.f.Fd())
}
