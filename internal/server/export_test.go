package server

import (
	"strconv"

	"crfs/internal/vfs"
)

// StagingName builds the temp an older crfsd staged a PUT of name in,
// "<name>.crfsd-<seq>.put~": the tests plant it as a crash leftover,
// which vfs.IsTemp still recognises.
func StagingName(name string, seq uint64) string {
	return name + ".crfsd-" + strconv.FormatUint(seq, 10) + ".put~"
}

// IsStagingName reports whether path is a temp of any form.
var IsStagingName = vfs.IsTemp
