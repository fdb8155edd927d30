package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sigdata/goinfmax/internal/persist/failpoint"
)

// startServer runs the real run() on a free port and returns the base URL
// plus a shutdown func that cancels the context (simulating SIGINT) and
// returns run's error — the exit-0/exit-1 decision.
func startServer(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())

	addrCh := make(chan string, 1)
	testOnListen = func(addr string) { addrCh <- addr }
	t.Cleanup(func() { testOnListen = nil })

	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-dataset", "nethept", "-scale", "64",
		"-indexsize", "2000",
	}, extraArgs...)
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, args) }()

	select {
	case addr := <-addrCh:
		return "http://" + addr, func() error {
			cancel()
			select {
			case err := <-runErr:
				return err
			case <-time.After(30 * time.Second):
				t.Fatal("run did not return after cancellation")
				return nil
			}
		}
	case err := <-runErr:
		cancel()
		t.Fatalf("run exited before listening: %v", err)
		return "", nil
	case <-time.After(60 * time.Second):
		cancel()
		t.Fatal("server did not start listening")
		return "", nil
	}
}

// TestServeAndDrain boots the binary's run(), issues real HTTP requests,
// then cancels the signal context and asserts a clean (exit 0) drain.
func TestServeAndDrain(t *testing.T) {
	base, shutdown := startServer(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Post(base+"/v1/seeds", "application/json", strings.NewReader(`{"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("seeds = %d %s", resp.StatusCode, body)
	}
	var sr struct {
		Seeds  []int64 `json:"seeds"`
		Spread float64 `json:"spread"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Seeds) != 3 || sr.Spread <= 0 {
		t.Fatalf("bad seeds body: %s", body)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("drain returned error (non-zero exit): %v", err)
	}
}

// TestDrainWithRequestInFlight delivers the shutdown while a request is
// mid-handler: the request must still complete with 200 and run must
// return nil (graceful drain, not a hard close).
func TestDrainWithRequestInFlight(t *testing.T) {
	base, shutdown := startServer(t)

	inFlight := make(chan int, 1)
	go func() {
		// A slow request: a fresh k under a generous budget. The handler
		// holds the in-flight slot while the greedy selection runs.
		resp, err := http.Post(base+"/v1/seeds", "application/json",
			strings.NewReader(fmt.Sprintf(`{"k":%d,"budget_ms":20000}`, 50)))
		if err != nil {
			inFlight <- -1
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		inFlight <- resp.StatusCode
	}()
	// Let the request reach the handler before pulling the plug. A fixed
	// small sleep keeps this simple; if the request had already finished,
	// the test still passes (it just degrades to TestServeAndDrain).
	time.Sleep(50 * time.Millisecond)

	if err := shutdown(); err != nil {
		t.Fatalf("drain returned error: %v", err)
	}
	if got := <-inFlight; got != 200 {
		t.Fatalf("in-flight request finished with %d, want 200", got)
	}
}

// TestStalledBodyDisconnected: a client that sends a query's headers and
// then stalls mid-body is disconnected at the read timeout, which releases
// the admission slot its query held: with a one-slot gate, the next query
// is served instead of refused.
func TestStalledBodyDisconnected(t *testing.T) {
	readTimeout = 300 * time.Millisecond
	t.Cleanup(func() { readTimeout = 10 * time.Second })
	base, shutdown := startServer(t, "-maxinflight", "1")
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("drain returned error: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprint(conn, "POST /v1/seeds HTTP/1.1\r\nHost: imserve\r\n"+
		"Content-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"k\":"); err != nil {
		t.Fatal(err)
	}
	// The body never completes; only the server can end the exchange.
	if err := conn.SetReadDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server kept the stalled connection open: %v", err)
	}

	resp, err := http.Post(base+"/v1/seeds", "application/json", strings.NewReader(`{"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query after the stalled client = %d %s, want 200", resp.StatusCode, body)
	}
}

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown model", []string{"-model", "XYZ"}, "unknown model"},
		{"unknown backend", []string{"-backend", "nope", "-dataset", "nethept", "-scale", "64"}, "unknown oracle backend"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"missing file", []string{"-file", "/nonexistent/edges.txt"}, "nonexistent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, string(body)
}

func postSeeds(t *testing.T, base string, k int) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/seeds", "application/json",
		strings.NewReader(fmt.Sprintf(`{"k":%d}`, k)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/seeds = %d %s", resp.StatusCode, body)
	}
	return body
}

// TestOracleFilePersistenceAcrossBoots is the in-process version of the
// smoke script's persistence leg: boot with -oraclefile (build + save),
// record an answer, shut down, boot again from the snapshot, and assert
// the second replica is immediately ready with byte-identical bodies.
func TestOracleFilePersistenceAcrossBoots(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "oracle.snap")

	base, shutdown := startServer(t, "-oraclefile", snap)
	if code, body := getText(t, base+"/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("first boot /readyz = %d %q", code, body)
	}
	firstBody := postSeeds(t, base, 5)
	if err := shutdown(); err != nil {
		t.Fatalf("first drain: %v", err)
	}
	fi, err := os.Stat(snap)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("snapshot is empty")
	}

	base, shutdown = startServer(t, "-oraclefile", snap)
	if code, body := getText(t, base+"/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("snapshot boot /readyz = %d %q", code, body)
	}
	secondBody := postSeeds(t, base, 5)
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("snapshot boot body %s != rebuild boot body %s", secondBody, firstBody)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestDegradedBootServesImmediately stalls the oracle build with a
// failpoint and boots with a tiny -builddeadline: the server must listen
// and answer flagged degree answers, then recover once the build runs.
func TestDegradedBootServesImmediately(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	release := make(chan struct{})
	failpoint.Enable("serve.build", func() error { <-release; return nil })
	defer failpoint.Disable("serve.build")

	base, shutdown := startServer(t, "-builddeadline", "5ms")

	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, body := getText(t, base+"/readyz"); code == 200 && body == "degraded\n" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never reported degraded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	body := postSeeds(t, base, 3)
	if !strings.Contains(string(body), `"degraded":true`) || !strings.Contains(string(body), `"backend":"degree"`) {
		t.Fatalf("degraded boot served unflagged body: %s", body)
	}

	close(release)
	for {
		if code, text := getText(t, base+"/readyz"); code == 200 && text == "ready\n" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recovered to ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
	body = postSeeds(t, base, 3)
	if strings.Contains(string(body), `"degraded"`) {
		t.Fatalf("recovered server still serving degraded bodies: %s", body)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestBuildCancelledBySignal delivers the shutdown signal during the
// oracle build: run must abort the build and return the cancellation
// error instead of serving.
func TestBuildCancelledBySignal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // signal already pending when the build starts
	err := run(ctx, []string{
		"-addr", "127.0.0.1:0",
		"-dataset", "nethept", "-scale", "8",
		"-indexsize", "2000000",
	})
	if err == nil {
		t.Fatal("run completed despite a pre-cancelled context")
	}
}
