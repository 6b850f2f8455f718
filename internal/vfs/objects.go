package vfs

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"crfs/internal/obs"
)

// Objects is a flat store of whole objects: what a checkpoint is put
// into and restored from, whichever front door reaches the store — a
// mount (Tree), a crfsd daemon (client.Client) or the striped store
// (stripe.Store). A missing name is ErrNotExist at every implementation.
type Objects interface {
	// Put stores size bytes from r under name; a body that is not
	// exactly size bytes fails the Put. r's bytes are valid only until
	// Put returns.
	Put(name string, r io.Reader, size int64) error
	// Get writes name's bytes to w and returns how many it wrote.
	Get(name string, w io.Writer) (int64, error)
	// Delete removes name; a name already gone is no error.
	Delete(name string) error
	// List returns every object name, sorted, temps excluded.
	List() ([]string, error)
}

// Traced is the optional upgrade of an Objects that joins its work to a
// caller's trace. Use it through PutTraced and GetTraced.
type Traced interface {
	PutTraced(name string, r io.Reader, size int64, ctx obs.SpanContext) error
	GetTraced(name string, w io.Writer, ctx obs.SpanContext) (int64, error)
}

// PutTraced puts an object into o, under ctx when ctx is valid and o is
// Traced.
func PutTraced(o Objects, name string, r io.Reader, size int64, ctx obs.SpanContext) error {
	if t, ok := o.(Traced); ok && ctx.Valid() {
		return t.PutTraced(name, r, size, ctx)
	}
	return o.Put(name, r, size)
}

// GetTraced gets an object from o, under ctx when ctx is valid and o is
// Traced.
func GetTraced(o Objects, name string, w io.Writer, ctx obs.SpanContext) (int64, error) {
	if t, ok := o.(Traced); ok && ctx.Valid() {
		return t.GetTraced(name, w, ctx)
	}
	return o.Get(name, w)
}

// SetSpanContext plants a trace context on a file handle so the spans
// of the pipeline under it (a CRFS mount's write, seal, encode and
// backend spans) join the caller's trace. Handles that do not trace are
// left alone.
func SetSpanContext(f File, ctx obs.SpanContext) {
	if !ctx.Valid() {
		return
	}
	if t, ok := f.(interface{ SetSpanContext(obs.SpanContext) }); ok {
		t.SetSpanContext(ctx)
	}
}

// Tree is the Objects view of a filesystem: every regular file under
// the root is an object named by its path. Put replaces crash-safely
// (Replace), so a failed Put leaves the previous object as it was.
type Tree struct {
	FS FS
}

func (t Tree) Put(name string, r io.Reader, size int64) error {
	return t.PutTraced(name, r, size, obs.SpanContext{})
}

// PutTraced is Put with ctx planted on the temp's handle.
func (t Tree) PutTraced(name string, r io.Reader, size int64, ctx obs.SpanContext) error {
	if IsTemp(name) {
		return fmt.Errorf("vfs: put %s: a temp name: %w", name, ErrInvalid)
	}
	if dir, _ := Split(name); dir != "." {
		if err := t.FS.MkdirAll(dir); err != nil {
			return err
		}
	}
	return Replace(t.FS, name, func(f File) error {
		SetSpanContext(f, ctx)
		n, err := io.Copy(io.NewOffsetWriter(f, 0), r)
		if err == nil && n != size {
			err = fmt.Errorf("vfs: put %s: body %d of %d bytes: %w", name, n, size, ErrInvalid)
		}
		return err
	})
}

func (t Tree) Get(name string, w io.Writer) (int64, error) {
	return t.GetTraced(name, w, obs.SpanContext{})
}

// GetTraced is Get with ctx planted on the file's handle.
func (t Tree) GetTraced(name string, w io.Writer, ctx obs.SpanContext) (int64, error) {
	f, err := t.FS.Open(name, ReadOnly)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	SetSpanContext(f, ctx)
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return io.Copy(w, io.NewSectionReader(f, 0, info.Size))
}

func (t Tree) Delete(name string) error {
	if err := t.FS.Remove(name); err != nil && !errors.Is(err, ErrNotExist) {
		return err
	}
	return nil
}

func (t Tree) List() ([]string, error) {
	names := []string{}
	var walk func(dir string) error
	walk = func(dir string) error {
		ents, err := t.FS.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			path := e.Name
			if dir != "." {
				path = dir + "/" + e.Name
			}
			if e.IsDir {
				if err := walk(path); err != nil {
					return err
				}
			} else if !IsTemp(path) {
				names = append(names, path)
			}
		}
		return nil
	}
	err := walk(".")
	sort.Strings(names)
	return names, err
}
