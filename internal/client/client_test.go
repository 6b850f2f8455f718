package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"crfs/internal/client"
	"crfs/internal/core"
	"crfs/internal/memfs"
	"crfs/internal/server"
	"crfs/internal/vfs"
)

func startServer(t *testing.T) string {
	t.Helper()
	return startDaemon(t, memfs.New())
}

// startDaemon serves a mount over back on loopback until the test ends.
func startDaemon(t testing.TB, back vfs.FS) string {
	t.Helper()
	fs, err := core.Mount(back, core.Options{ChunkSize: 64 << 10, BufferPoolSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(fs, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		fs.Unmount()
	})
	return ln.Addr().String()
}

func TestHelloAdvertisesCap(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.MaxInFlight(); got != 8 {
		t.Fatalf("MaxInFlight = %d, want the daemon's cap 8", got)
	}
}

// TestOneConnectionManyRequests multiplexes concurrent PUTs and GETs
// over a single persistent connection.
func TestOneConnectionManyRequests(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr, client.Config{IOTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const workers = 16
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("mux/%d", w)
			body := bytes.Repeat([]byte{byte(w)}, 100_000)
			for i := 0; i < 4; i++ {
				if err := c.Put(name, bytes.NewReader(body), int64(len(body))); err != nil {
					errc <- fmt.Errorf("put %s: %w", name, err)
					return
				}
				var got bytes.Buffer
				if _, err := c.Get(name, &got); err != nil || !bytes.Equal(got.Bytes(), body) {
					errc <- fmt.Errorf("get %s: err=%v equal=%v", name, err, bytes.Equal(got.Bytes(), body))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPutBodySourceFailurePoisonsSession: if the local body source dies
// mid-PUT — a reader that runs short, a body handed over by WriteTo that
// runs short or fails — the declared size can never be honored, so the
// session must fail rather than desync the framing.
func TestPutBodySourceFailurePoisonsSession(t *testing.T) {
	addr := startServer(t)
	errSource := errors.New("body source failed")
	body := make([]byte, 1<<20)
	for _, tc := range []struct {
		name string
		body io.Reader
		want error
	}{
		{"reader-short", io.LimitReader(bytes.NewReader(body), 100_000), io.ErrUnexpectedEOF},
		{"handed-over-short", &piecesBody{b: body, piece: 64 << 10, stop: 300_000}, io.ErrUnexpectedEOF},
		{"handed-over-error", &piecesBody{b: body, piece: 64 << 10, stop: 300_000, err: errSource}, errSource},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := client.Dial(addr, client.Config{IOTimeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Put("short", tc.body, int64(len(body))); !errors.Is(err, tc.want) {
				t.Fatalf("PUT with a failing body source: %v, want %v", err, tc.want)
			}
			if err := c.Ping(); err == nil {
				t.Fatal("session still usable after body source failure")
			}
		})
	}
}

// blockingSink passes its first Write, then signals stalled and blocks
// until released, failing the write that was in flight.
type blockingSink struct {
	writes   int
	stalled  chan struct{}
	released chan struct{}
}

func (w *blockingSink) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		close(w.stalled)
		<-w.released
		return 0, errors.New("sink full")
	}
	return len(p), nil
}

// TestCloseDuringStreamingGetDoesNotPanic: Close races an in-flight
// frame delivery — the GET's sink has stalled, so the reader is parked
// delivering to the request's full channel when another goroutine tears
// the session down. fail() used to close that channel under the
// reader's parked send — a send-on-closed-channel panic that killed the
// whole process. Now the session dies cleanly: Get reports an error,
// later calls report the session error, nothing panics.
func TestCloseDuringStreamingGetDoesNotPanic(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr, client.Config{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 32 data frames, twice the per-request channel buffer, so the server
	// is still streaming when the sink stalls.
	body := make([]byte, 32*server.DataChunk)
	if err := c.Put("big", bytes.NewReader(body), int64(len(body))); err != nil {
		t.Fatalf("put: %v", err)
	}
	sink := &blockingSink{stalled: make(chan struct{}), released: make(chan struct{})}
	go func() {
		<-sink.stalled
		// Give the reader time to fill the request channel and park on
		// the delivery of the next frame, then yank the session.
		time.Sleep(100 * time.Millisecond)
		c.Close()
		close(sink.released)
	}()
	if _, err := c.Get("big", sink); err == nil {
		t.Fatal("Get survived a concurrent Close")
	}
	if err := c.Ping(); err == nil {
		t.Fatal("session still usable after Close")
	}
}

// TestBadNameRejectedClientSide: a name that cannot round-trip the
// space-separated verb line is refused before any wire traffic, so the
// request fails without corrupting the multiplexed session.
func TestBadNameRejectedClientSide(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr, client.Config{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("has space", bytes.NewReader(nil), 0); err == nil {
		t.Fatal("PUT with space in name succeeded")
	}
	if _, err := c.Get("has space", io.Discard); err == nil {
		t.Fatal("GET with space in name succeeded")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("session poisoned by client-side rejection: %v", err)
	}
}

func TestServerErrorText(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr, client.Config{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Get("missing", io.Discard)
	var re *client.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "missing") {
		t.Fatalf("GET missing: %v", err)
	}
}
