package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"detective/internal/dataset"
	"detective/internal/server"
)

func newTestServer(t *testing.T) (*httptest.Server, *dataset.PaperExample) {
	t.Helper()
	ex := dataset.NewPaperExample()
	s, err := server.New(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, ex
}

const dirtyCSV = `Name,DOB,Country,Prize,Institution,City
Avram Hershko,1937-12-31,Israel,Albert Lasker Award for Medicine,Israel Institute of Technology,Karcag
`

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestCleanEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/clean?marked=1", "text/csv", strings.NewReader(dirtyCSV))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body strings.Builder
	if _, err := func() (int64, error) {
		b := make([]byte, 64<<10)
		n, _ := resp.Body.Read(b)
		body.Write(b[:n])
		return int64(n), nil
	}(); err != nil {
		t.Fatal(err)
	}
	out := body.String()
	if !strings.Contains(out, "Haifa+") {
		t.Fatalf("City not repaired+marked:\n%s", out)
	}
	if !strings.Contains(out, "Nobel Prize in Chemistry+") {
		t.Fatalf("Prize not repaired:\n%s", out)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/explain", "text/csv", strings.NewReader(dirtyCSV))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []server.ExplainedTuple
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if len(rows[0].Steps) != 4 {
		t.Fatalf("steps = %d, want 4", len(rows[0].Steps))
	}
	foundCity := false
	for _, st := range rows[0].Steps {
		if st.RepairCol == "City" {
			foundCity = true
			if st.Old != "Karcag" || st.New != "Haifa" {
				t.Errorf("City step = %+v", st)
			}
			if st.Witness["n2"] != "Karcag" {
				t.Errorf("witness = %v", st.Witness)
			}
		}
	}
	if !foundCity {
		t.Fatal("no City repair step in explanation")
	}
}

// TestCleanAndExplainAcceptBOM: /clean and /explain answer a body
// whose header starts with a UTF-8 byte order mark exactly as they
// answer the same body without it.
func TestCleanAndExplainAcceptBOM(t *testing.T) {
	ts, ex := newTestServer(t)
	var csv strings.Builder
	if err := ex.Dirty.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	for _, path := range []string{"/clean?marked=1", "/explain"} {
		plain := post(path, csv.String())
		if got := post(path, "\ufeff"+csv.String()); got != plain {
			t.Errorf("POST %s with a BOM:\n%s\nwithout:\n%s", path, got, plain)
		}
	}
}

func TestRulesEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/rules")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 64<<10)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "rule phi1 {") {
		t.Fatalf("rules output:\n%s", buf[:n])
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Rules != 4 || len(stats.Schema) != 6 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.KB.Instances == 0 || stats.KB.Triples == 0 {
		t.Fatalf("kb stats = %+v", stats.KB)
	}
}

func TestCleanRejectsBadInput(t *testing.T) {
	ts, _ := newTestServer(t)

	// Wrong column count.
	resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader("A,B\n1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong arity: status = %d", resp.StatusCode)
	}

	// Wrong column names.
	resp, err = http.Post(ts.URL+"/clean", "text/csv",
		strings.NewReader("A,B,C,D,E,F\n1,2,3,4,5,6\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong names: status = %d", resp.StatusCode)
	}

	// Empty body.
	resp, err = http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: status = %d", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(ts.URL + "/clean")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /clean: status = %d", resp.StatusCode)
	}
}

func TestConcurrentCleans(t *testing.T) {
	// Room for all eight requests: the default MaxConcurrent is
	// 2×GOMAXPROCS, which sheds some of them on small machines, and
	// shedding is TestFaultServerLoadShed's subject, not this test's.
	ts, _ := newFaultServer(t, server.Config{MaxConcurrent: 8})
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/clean", "text/csv", strings.NewReader(dirtyCSV))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = &http.ProtocolError{ErrorString: resp.Status}
				}
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
