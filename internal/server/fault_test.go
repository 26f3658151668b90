package server_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"detective/internal/dataset"
	"detective/internal/faultinject"
	"detective/internal/server"
)

func newFaultServer(t *testing.T, cfg server.Config) (*httptest.Server, *server.Server) {
	t.Helper()
	ex := dataset.NewPaperExample()
	s, err := server.NewWithConfig(ex.Rules, ex.KB, ex.Schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s
}

// TestFaultServerPanicQuarantine: one poisoned row panics deep inside
// the similarity kernels; the request still returns 200 with every
// other row cleaned, and the trailers carry the quarantine count.
func TestFaultServerPanicQuarantine(t *testing.T) {
	ts, _ := newFaultServer(t, server.Config{})
	poison := "POISON-NAME-HTTP1"
	defer faultinject.PanicOnValue(poison)()

	in := "Name,DOB,Country,Prize,Institution,City\n" +
		"Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,Israel Institute of Technology,Karcag\n" +
		poison + ",1900-01-01,Nowhere,No Prize,No Institution,Nowhere City\n"
	resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body:\n%s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("output has %d lines, want 3:\n%s", len(lines), body)
	}
	if !strings.Contains(lines[1], "Haifa") {
		t.Errorf("healthy row not cleaned: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], poison+",") {
		t.Errorf("poisoned row not passed through: %q", lines[2])
	}
	// Trailers are only available after the body has been consumed.
	if got := resp.Trailer.Get(server.TrailerQuarantined); got != "1" {
		t.Errorf("trailer %s = %q, want 1", server.TrailerQuarantined, got)
	}
	if got := resp.Trailer.Get(server.TrailerRows); got != "2" {
		t.Errorf("trailer %s = %q, want 2", server.TrailerRows, got)
	}
}

// TestFaultServerLoadShed: with MaxConcurrent=1, a second cleaning
// request arriving while one is in flight is shed with 429 +
// Retry-After; the in-flight request still completes.
func TestFaultServerLoadShed(t *testing.T) {
	ts, _ := newFaultServer(t, server.Config{MaxConcurrent: 1, RequestTimeout: 30 * time.Second})

	pr, pw := io.Pipe()
	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/clean", "text/csv", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-flight request: status %d", resp.StatusCode)
			}
		}
		firstDone <- err
	}()
	// A pipe write only completes once the handler is consuming the
	// body — i.e. once the request holds the concurrency slot.
	if _, err := pw.Write([]byte("Name,DOB,Country,Prize,Institution,City\n")); err != nil {
		t.Fatal(err)
	}

	// The first request holds the semaphore while blocked on its open
	// body; keep probing until the shed path answers 429.
	deadline := time.Now().Add(5 * time.Second)
	shed := false
	for time.Now().Before(deadline) {
		resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(dirtyCSV))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("429 without Retry-After")
			}
			shed = true
			break
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe status = %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !shed {
		t.Fatal("never observed a 429 while a request was in flight")
	}

	// Unblock the in-flight request; it must complete normally.
	if _, err := pw.Write([]byte("Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,Israel Institute of Technology,Karcag\n")); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}

	// Capacity is released afterwards.
	resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(dirtyCSV))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shed status = %d", resp.StatusCode)
	}
}

// TestFaultServerStreamsBeforeEOF proves /clean does not materialize
// the input: cleaned rows arrive at the client while the request body
// is still open — impossible if the server buffered the whole table.
// The body holds 1,000 rows, several times the stream's 16 KiB output
// buffer; after the last one the writer keeps the body open until the
// client has read the first output line, for at most 5 s, and fails
// the test if that wait runs out.
func TestFaultServerStreamsBeforeEOF(t *testing.T) {
	ts, _ := newFaultServer(t, server.Config{})

	const rows = 1000
	pr, pw := io.Pipe()
	firstLine := make(chan struct{})
	writeErr := make(chan error, 1)
	go func() {
		defer pw.Close()
		if _, err := io.WriteString(pw, "Name,DOB,Country,Prize,Institution,City\n"); err != nil {
			writeErr <- err
			return
		}
		for i := 0; i < rows; i++ {
			row := fmt.Sprintf("Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,Israel Institute of Technology,Karcag%d\n", i)
			if _, err := io.WriteString(pw, row); err != nil {
				writeErr <- err
				return
			}
		}
		select {
		case <-firstLine:
			writeErr <- nil
		case <-time.After(5 * time.Second):
			writeErr <- fmt.Errorf("no output line reached the client within 5 s of the body's last row")
		}
	}()

	req, err := http.NewRequest("POST", ts.URL+"/clean", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Read the first output line while the body pipe is still open.
	br := bufio.NewReader(resp.Body)
	header, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading streamed header: %v", err)
	}
	if !strings.HasPrefix(header, "Name,") {
		t.Fatalf("first streamed line = %q", header)
	}
	close(firstLine)
	if err := <-writeErr; err != nil {
		t.Fatalf("writing request body: %v", err)
	}
	// Drain the rest and check the row count trailer.
	n := 0
	var readErr error
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if err != io.EOF || line != "" {
				readErr = fmt.Errorf("after %d rows (last %q): %w", n, line, err)
			}
			break
		}
		n++
	}
	if n != rows {
		t.Fatalf("streamed %d rows, want %d (read error: %v, trailer rows %q)",
			n, rows, readErr, resp.Trailer.Get(server.TrailerRows))
	}
	if got := resp.Trailer.Get(server.TrailerRows); got != fmt.Sprint(rows) {
		t.Errorf("trailer rows = %q, want %d", got, rows)
	}
}

// TestFaultServerClientCancel: a client that cancels mid-upload must
// not wedge the server or leak its concurrency slot.
func TestFaultServerClientCancel(t *testing.T) {
	ts, _ := newFaultServer(t, server.Config{MaxConcurrent: 1})

	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/clean", pr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write([]byte("Name,DOB,Country,Prize,Institution,City\n")); err != nil {
		t.Fatal(err)
	}
	cancel()
	pw.CloseWithError(context.Canceled)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled request did not finish on the client")
	}

	// The server stays healthy and the single slot is free again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(dirtyCSV))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released: status %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after cancel = %d", resp.StatusCode)
	}
}

// TestFaultServerDeadline: a trickling client cannot hold a cleaning
// request past the per-request deadline; the handler stops between
// rows and finishes the response.
func TestFaultServerDeadline(t *testing.T) {
	ts, _ := newFaultServer(t, server.Config{RequestTimeout: 300 * time.Millisecond})

	pr, pw := io.Pipe()
	stop := make(chan struct{})
	go func() {
		// Bounded trickler: far outlives the 300ms deadline but always
		// ends, so the server can finish draining the request body.
		defer pw.Close()
		io.WriteString(pw, "Name,DOB,Country,Prize,Institution,City\n")
		for i := 0; i < 60; i++ {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if _, err := io.WriteString(pw,
				fmt.Sprintf("Name %d,1900-01-01,Nowhere,No Prize,None,Nowhere\n", i)); err != nil {
				return
			}
		}
	}()
	defer close(stop)

	start := time.Now()
	resp, err := http.Post(ts.URL+"/clean", "text/csv", pr)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline-bound request took %v", elapsed)
	}

	// The server is still healthy afterwards.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after deadline = %d", hresp.StatusCode)
	}
}

// TestFaultServerBodyTooLarge: both endpoints answer 413 (not 400)
// when the body exceeds the configured cap.
func TestFaultServerBodyTooLarge(t *testing.T) {
	ts, _ := newFaultServer(t, server.Config{MaxBodyBytes: 512})
	var big strings.Builder
	big.WriteString("Name,DOB,Country,Prize,Institution,City\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&big, "Name %d,1900-01-01,Nowhere,No Prize,None,Nowhere\n", i)
	}
	for _, ep := range []string{"/clean", "/explain"} {
		resp, err := http.Post(ts.URL+ep, "text/csv", strings.NewReader(big.String()))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413 (body %s)", ep, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `"error"`) {
			t.Errorf("%s: no JSON error envelope: %s", ep, body)
		}
	}
}

// syncBuffer is a bytes.Buffer safe for the server's error logger.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFaultServerBodyTooLargeKeepAlive: a /clean that stops reading an
// over-limit body leaves its keep-alive connection usable. Over one
// raw connection, each case sends an oversize /clean, reads the reply,
// then sends a second POST, which gets its own 200 unless the server
// closed the connection. Whether or not the 200 was committed before
// the limit tripped, a remainder past the drain bound closes the
// connection, and the server never panics.
func TestFaultServerBodyTooLargeKeepAlive(t *testing.T) {
	const header = "Name,DOB,Country,Prize,Institution,City\n"
	rows := func(n int) string {
		var b strings.Builder
		b.WriteString(header)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "Name %d,1900-01-01,Nowhere,No Prize,None,Nowhere\n", i)
		}
		return b.String()
	}
	cases := []struct {
		name       string
		limit      int64
		rows       int // ~52 bytes each
		wantStatus int
		wantReuse  bool
	}{
		// The limit trips before the 4 KiB holdback fills: a 413.
		{"uncommitted", 512, 100, http.StatusRequestEntityTooLarge, true},
		{"uncommitted, remainder past the drain bound", 512, 10000, http.StatusRequestEntityTooLarge, false},
		// ~1,260 rows fit the limit, so the 200 is on the wire first.
		{"committed", 64 << 10, 1600, http.StatusOK, true},
		{"committed, remainder past the drain bound", 64 << 10, 10000, http.StatusOK, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := dataset.NewPaperExample()
			s, err := server.NewWithConfig(ex.Rules, ex.KB, ex.Schema, server.Config{MaxBodyBytes: tc.limit})
			if err != nil {
				t.Fatal(err)
			}
			var errLog syncBuffer
			ts := httptest.NewUnstartedServer(s)
			ts.Config.ErrorLog = log.New(&errLog, "", 0)
			ts.Start()
			defer func() {
				ts.Close()
				if strings.Contains(errLog.String(), "panic") {
					t.Errorf("server panicked:\n%s", errLog.String())
				}
			}()

			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(conn)
			post := func(body string) {
				// The server may stop reading and close mid-body; the
				// write error is expected then and the read reports it.
				go fmt.Fprintf(conn, "POST /clean HTTP/1.1\r\nHost: test\r\nContent-Type: text/csv\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
			}

			post(rows(tc.rows))
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				t.Fatalf("reading the oversize reply: %v", rerr)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}

			if !tc.wantReuse {
				// The connection must not be read again: the next read
				// sees the server close it, never a reply to leftover
				// body bytes parsed as a request.
				if _, err := br.ReadByte(); err == nil {
					t.Fatal("server kept reading the connection after giving up on the body")
				} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatal("server left the connection open after giving up on the body")
				}
				return
			}
			if resp.Close {
				t.Fatal("reply closed a connection whose body fit the drain bound")
			}
			post(rows(1))
			resp, err = http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("second POST on the same connection: %v", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("second POST status = %d, want 200", resp.StatusCode)
			}
		})
	}
}

// TestFaultServerReadyz: readiness flips independently of liveness.
func TestFaultServerReadyz(t *testing.T) {
	ts, s := newFaultServer(t, server.Config{})
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", got)
	}
	s.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", got)
	}
	s.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("re-readied readyz = %d, want 200", got)
	}
}

// TestFaultServerExplainQuarantine: the buffered endpoint quarantines
// poisoned rows too, flagging them in the JSON.
func TestFaultServerExplainQuarantine(t *testing.T) {
	ts, _ := newFaultServer(t, server.Config{})
	poison := "POISON-NAME-EXPL"
	defer faultinject.PanicOnValue(poison)()

	in := "Name,DOB,Country,Prize,Institution,City\n" +
		poison + ",1900-01-01,Nowhere,No Prize,No Institution,Nowhere City\n"
	resp, err := http.Post(ts.URL+"/explain", "text/csv", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d:\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"quarantined": true`) {
		t.Fatalf("quarantine flag missing:\n%s", body)
	}
}
