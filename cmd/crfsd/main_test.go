package main

import (
	"bytes"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"crfs/internal/client"
)

// logBuffer collects the daemon's log lines; run logs from several
// goroutines.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func captureLog(t *testing.T) *logBuffer {
	t.Helper()
	b := &logBuffer{}
	log.SetOutput(b)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return b
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// mountLive reports whether any mount's IO worker is still running: a
// mount run created and did not unmount leaves them behind.
func mountLive() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("core.(*FS).ioWorker"))
}

func TestStartupFailuresExitNonZero(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"unknown codec", []string{"-codec", "nosuch"}, 1},
		{"unbindable addr", []string{"-addr", taken.Addr().String()}, 1},
		{"unbindable debug addr", []string{"-addr", "127.0.0.1:0", "-debug-addr", taken.Addr().String()}, 1},
		{"unknown flag", []string{"-nosuch"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logs := captureLog(t)
			args := append([]string{"-dir", t.TempDir()}, tc.args...)
			if got := run(args, make(chan os.Signal)); got != tc.want {
				t.Fatalf("crfsd %v: exit %d, want %d\n%s", tc.args, got, tc.want, logs)
			}
			waitFor(t, "the mount's IO workers to exit", func() bool { return !mountLive() })
		})
	}
}

func TestStopSignalDrainsAndUnmounts(t *testing.T) {
	logs := captureLog(t)
	dir := t.TempDir()
	stop := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-dir", dir, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, stop)
	}()

	// The daemon logs the addresses it bound; "serving" comes last.
	serving := regexp.MustCompile(`serving \S+ on (\S+) `)
	debug := regexp.MustCompile(`debug on (http://\S+)`)
	waitFor(t, "the daemon to serve", func() bool {
		select {
		case code := <-exit:
			t.Fatalf("crfsd exited %d before serving\n%s", code, logs)
		default:
		}
		return serving.MatchString(logs.String())
	})
	addr := serving.FindStringSubmatch(logs.String())[1]
	debugURL := debug.FindStringSubmatch(logs.String())[1]

	payload := bytes.Repeat([]byte("checkpoint"), 100<<10)
	c, err := client.Dial(addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("ckpt.img", bytes.NewReader(payload), int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	c.Close()

	resp, err := http.Get(debugURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "crfsd_puts_committed_total 1") {
		t.Fatalf("GET /metrics on -debug-addr: status %d, err %v, body:\n%s", resp.StatusCode, err, body)
	}

	stop <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("crfsd exited %d after SIGTERM, want 0\n%s", code, logs)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("crfsd did not exit after SIGTERM\n%s", logs)
	}
	waitFor(t, "the mount's IO workers to exit", func() bool { return !mountLive() })
	if _, err := http.Get(debugURL + "/metrics"); err == nil {
		t.Fatal("-debug-addr still answers after exit")
	}
	if got, err := os.ReadFile(filepath.Join(dir, "ckpt.img")); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ckpt.img after exit: %d bytes, err %v; want the %d put", len(got), err, len(payload))
	}
}

// TestFlagSurface pins the daemon's flags. A new row here has to name the
// two callers that need different values (or say why it is a deployment
// setting); otherwise the value is a constant.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "chunk", "codec", "debug-addr", "dir", "max-conns",
		"max-put-bytes", "pool", "slow-ms", "threads", "trace",
	}
	logs := captureLog(t)
	if code := run([]string{"-h"}, make(chan os.Signal)); code != 0 {
		t.Fatalf("crfsd -h: exit %d\n%s", code, logs)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(logs.String(), -1) {
		got = append(got, m[1])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crfsd -h lists flags\n%v, want\n%v", got, want)
	}
}
