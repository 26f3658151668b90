package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"detective/internal/dataset"
	"detective/internal/kb"
	"detective/internal/server"
)

// fakeResolver serves every configured name from one shared paper-
// example server and counts pin releases, standing in for the real
// registry so mux behavior is tested in isolation.
type fakeResolver struct {
	srv      *server.Server
	names    []string
	releases int
}

func newFakeResolver(t *testing.T, names ...string) *fakeResolver {
	t.Helper()
	ex := dataset.NewPaperExample()
	s, err := server.New(ex.Rules, ex.KB, ex.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeResolver{srv: s, names: names}
}

func (f *fakeResolver) Tenant(name string) (*server.Server, func(), error) {
	for _, n := range f.names {
		if n == name {
			return f.srv, func() { f.releases++ }, nil
		}
	}
	return nil, nil, server.ErrUnknownTenant
}

func (f *fakeResolver) TenantNames() []string { return f.names }

func (f *fakeResolver) TenantLoader(name string) func() (*kb.Graph, error) {
	return func() (*kb.Graph, error) {
		return dataset.NewPaperExample().KB, nil
	}
}

type errEnvelope struct {
	Error struct {
		Status  int    `json:"status"`
		Message string `json:"message"`
	} `json:"error"`
}

// decodeErr asserts the response is the JSON error envelope with the
// expected status in both the HTTP header and the body.
func decodeErr(t *testing.T, resp *http.Response, wantStatus int) errEnvelope {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, wantStatus, b)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var env errEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("body is not the JSON envelope: %v", err)
	}
	if env.Error.Status != wantStatus {
		t.Fatalf("envelope status = %d, want %d", env.Error.Status, wantStatus)
	}
	return env
}

func TestTenantMuxRouting(t *testing.T) {
	f := newFakeResolver(t, "alpha", "beta")
	ts := httptest.NewServer(server.NewTenantMux(f, nil))
	defer ts.Close()

	// /healthz is tenant-independent.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// /v1 lists tenants.
	resp, err = http.Get(ts.URL + "/v1")
	if err != nil {
		t.Fatal(err)
	}
	var idx struct {
		Tenants []string `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(idx.Tenants) != 2 || idx.Tenants[0] != "alpha" {
		t.Fatalf("index = %v", idx.Tenants)
	}

	// A tenant-scoped clean works and the pin is released.
	resp, err = http.Post(ts.URL+"/v1/alpha/clean?marked=1", "text/csv", strings.NewReader(dirtyCSV))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "Haifa+") {
		t.Fatalf("clean via tenant path: %d\n%s", resp.StatusCode, body)
	}
	if f.releases != 1 {
		t.Fatalf("releases = %d, want 1", f.releases)
	}

	// Tenant-scoped stats resolves the same underlying server.
	resp, err = http.Get(ts.URL + "/v1/beta/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant stats = %d", resp.StatusCode)
	}
	if f.releases != 2 {
		t.Fatalf("releases = %d, want 2", f.releases)
	}
}

func TestTenantMuxJSON404(t *testing.T) {
	f := newFakeResolver(t, "alpha")
	ts := httptest.NewServer(server.NewTenantMux(f, nil))
	defer ts.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Unknown top-level route.
	env := decodeErr(t, get("/nope"), http.StatusNotFound)
	if !strings.Contains(env.Error.Message, "/nope") {
		t.Fatalf("message = %q", env.Error.Message)
	}
	// Unknown tenant.
	env = decodeErr(t, get("/v1/ghost/clean"), http.StatusNotFound)
	if !strings.Contains(env.Error.Message, "ghost") {
		t.Fatalf("message = %q", env.Error.Message)
	}
	// Empty tenant segment.
	decodeErr(t, get("/v1//clean"), http.StatusNotFound)
	// Wrong method on the index.
	resp, err := http.Post(ts.URL+"/v1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeErr(t, resp, http.StatusMethodNotAllowed)
	// Unknown route *inside* a tenant: delegated to the tenant server,
	// whose ServeMux 404 must come back as JSON too.
	decodeErr(t, get("/v1/alpha/bogus"), http.StatusNotFound)

	// Lifecycle endpoints are not exposed on the public mux: /reload
	// under a tenant falls through to the tenant's own mux, which has
	// a /reload route only when configured with one — the public
	// paper-example server has none, so JSON 404.
	resp, err = http.Post(ts.URL+"/v1/alpha/rollback", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeErr(t, resp, http.StatusNotFound)
}

func TestSingleTenantJSON404(t *testing.T) {
	// The JSON envelope rewrite also covers the single-tenant server's
	// built-in ServeMux responses.
	ts, _ := newTestServer(t)

	resp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	decodeErr(t, resp, http.StatusNotFound)

	// Method mismatch: GET on the POST-only /clean. The 405 must be
	// JSON and preserve the Allow information in the message.
	resp, err = http.Get(ts.URL + "/clean")
	if err != nil {
		t.Fatal(err)
	}
	env := decodeErr(t, resp, http.StatusMethodNotAllowed)
	if !strings.Contains(env.Error.Message, "POST") {
		t.Fatalf("405 message should name the allowed method: %q", env.Error.Message)
	}
}

func TestTenantAdminMux(t *testing.T) {
	f := newFakeResolver(t, "alpha")
	ts := httptest.NewServer(server.NewTenantAdminMux(f, nil))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/alpha/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin reload = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "generation") {
		t.Fatalf("reload response: %s", body)
	}

	// GET on the admin reload endpoint is a JSON 405.
	resp, err = http.Get(ts.URL + "/v1/alpha/reload")
	if err != nil {
		t.Fatal(err)
	}
	decodeErr(t, resp, http.StatusMethodNotAllowed)

	// Unknown tenant on admin routes is still a JSON 404.
	resp, err = http.Post(ts.URL+"/v1/ghost/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	decodeErr(t, resp, http.StatusNotFound)
}

// TestTenantMuxDefaultRootRoutes: the tenant named "default" answers
// the root routes — public ones on both muxes, /reload and /rollback
// on the admin mux only — through the same pin and release as its
// /v1/default/... paths. Without a default tenant they are 404s.
func TestTenantMuxDefaultRootRoutes(t *testing.T) {
	f := newFakeResolver(t, server.DefaultTenant)
	pub := httptest.NewServer(server.NewTenantMux(f, nil))
	defer pub.Close()
	admin := httptest.NewServer(server.NewTenantAdminMux(f, nil))
	defer admin.Close()

	do := func(method, url, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, root := do("POST", pub.URL+"/clean?marked=1", dirtyCSV)
	if code != http.StatusOK || !strings.Contains(root, "Haifa+") {
		t.Fatalf("root /clean = %d:\n%s", code, root)
	}
	if _, prefixed := do("POST", pub.URL+"/v1/default/clean?marked=1", dirtyCSV); prefixed != root {
		t.Fatalf("/v1/default/clean differs from /clean:\n%s\nvs\n%s", prefixed, root)
	}
	for _, path := range []string{"/rules", "/stats", "/readyz"} {
		if code, body := do("GET", pub.URL+path, ""); code != http.StatusOK {
			t.Fatalf("root %s = %d: %s", path, code, body)
		}
	}
	if code, body := do("POST", pub.URL+"/explain", dirtyCSV); code != http.StatusOK {
		t.Fatalf("root /explain = %d: %s", code, body)
	}
	// Method checks stay the tenant server's: a JSON 405 naming POST.
	code, body := do("GET", pub.URL+"/clean", "")
	if code != http.StatusMethodNotAllowed || !strings.Contains(body, "POST") {
		t.Fatalf("GET /clean = %d: %s", code, body)
	}
	if f.releases != 7 {
		t.Fatalf("releases = %d, want one per tenant request (7)", f.releases)
	}

	// The KB lifecycle is admin-only.
	if code, _ := do("POST", pub.URL+"/reload", ""); code != http.StatusNotFound {
		t.Fatalf("public POST /reload = %d, want 404", code)
	}
	if code, body := do("POST", admin.URL+"/reload", ""); code != http.StatusOK || !strings.Contains(body, "generation") {
		t.Fatalf("admin POST /reload = %d: %s", code, body)
	}
	if code, body := do("POST", admin.URL+"/rollback", ""); code != http.StatusOK {
		t.Fatalf("admin POST /rollback = %d: %s", code, body)
	}

	// No default tenant: the root routes are 404s.
	other := httptest.NewServer(server.NewTenantMux(newFakeResolver(t, "alpha"), nil))
	defer other.Close()
	resp, err := http.Post(other.URL+"/clean", "text/csv", strings.NewReader(dirtyCSV))
	if err != nil {
		t.Fatal(err)
	}
	decodeErr(t, resp, http.StatusNotFound)
}
