package contract_test

import (
	"slices"
	"testing"

	"crfs/internal/crashfs"
	"crfs/internal/server"
	"crfs/internal/vfs"
)

// allowed is what each name may read after a crash at log position k:
// every version a Put or Delete that began before k may have left, less
// those a later op, acked by k, replaced by beginning after they ended. A
// Put whose body source failed leaves nothing; before its first op a name
// is absent.
func allowed(hist []event, k int) map[string][][]byte {
	hist = slices.Clip(hist)
	for _, name := range names {
		hist = append(hist, event{name: name, start: -1, acked: true})
	}
	may := map[string][][]byte{}
	for i, e := range hist {
		replaced := false
		for j, f := range hist {
			replaced = replaced || j != i && f.name == e.name && f.acked && f.end <= k && f.start >= e.end
		}
		if e.start < k && !e.source && !replaced {
			may[e.name] = append(may[e.name], e.v)
		}
	}
	return may
}

// TestCrashSweep records generated ops through each door that sits on a
// filesystem, over crashfs, then replays every mutation boundary in the
// linear model and in the volatile one (a file's writes since its last
// Sync are lost), restarts the door over the replayed state, and holds
// every name to what it may read at that point. crfsd's restart sweeps
// staging temps, so none may be left. -short takes every seventh point.
func TestCrashSweep(t *testing.T) {
	for _, row := range []struct {
		name string
		open func(t *testing.T, back func() vfs.FS) door
	}{
		{"mount-raw", func(t *testing.T, back func() vfs.FS) door { return newMount(t, false, back) }},
		{"mount-deflate", func(t *testing.T, back func() vfs.FS) door { return newMount(t, true, back) }},
		{"crfsd", func(t *testing.T, back func() vfs.FS) door { return newDaemon(t, back) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			rec := crashfs.New()
			var state vfs.FS = rec
			d := row.open(t, func() vfs.FS { return state })
			hist := drive(t, d, 7, 24, []int{0, 1, coreChunk + 1, server.DataChunk + 1}, rec.Len).hist
			points := rec.Boundaries()
			for _, mode := range []string{"linear", "volatile"} {
				t.Run(mode, func(t *testing.T) {
					for i, p := range points {
						if testing.Short() && i%7 != 0 && i != len(points)-1 {
							continue
						}
						p.Volatile = mode == "volatile"
						replayed, err := rec.Replay(p)
						if err != nil {
							t.Fatal(err)
						}
						state = replayed
						d.Restart(t)
						at := &run{t: t, d: d, m: model{may: allowed(hist, p.Mut)}}
						at.checkAll(false)
						if dd, ok := d.(*daemonDoor); ok {
							if n, err := vfs.SweepTemps(dd.fs, "."); n != 0 || err != nil {
								t.Errorf("%d temps (%v) left after the restart's sweep", n, err)
							}
						}
						if t.Failed() {
							t.Fatalf("at crash point %+v of %d", p, len(points)-1)
						}
					}
				})
			}
		})
	}
}
