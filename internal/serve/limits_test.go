package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/session"
)

// padReader yields an endless run of 'a' bytes: the inside of a JSON
// string that never ends.
type padReader struct{}

func (padReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}

// paddedBody is a JSON document opening with prefix whose last string
// value runs to n bytes past the prefix, so the decoder must read all of
// it before it can finish the value.
func paddedBody(prefix string, n int64) io.Reader {
	return io.MultiReader(strings.NewReader(prefix), io.LimitReader(padReader{}, n), strings.NewReader(`"}`))
}

func post(t *testing.T, url string, body io.Reader) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

// TestServerOversizedBodies pins the body-size boundary over the wire:
// create, tell and import bodies past their caps are refused with 413,
// malformed bodies under the cap still get 400, and the session the
// refused tell targeted keeps working.
func TestServerOversizedBodies(t *testing.T) {
	srv := &Server{}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	if got := post(t, ts.URL+"/v1/sessions", paddedBody(`{"id":"`, maxSpecBody)); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized create: status %d, want 413", got)
	}
	if got := post(t, ts.URL+"/v1/sessions", strings.NewReader(`{"id":`)); got != http.StatusBadRequest {
		t.Errorf("truncated create: status %d, want 400", got)
	}

	spec := testSpecs()[3]
	if _, err := c.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	tellURL := ts.URL + "/v1/sessions/" + spec.ID + "/tell"
	if got := post(t, tellURL, paddedBody(`{"results":"`, maxTellBody)); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized tell: status %d, want 413", got)
	}
	b, done, err := c.Ask(ctx, spec.ID)
	if err != nil || done {
		t.Fatalf("ask after refused tell: done=%v err=%v", done, err)
	}
	if _, err := c.Tell(ctx, spec.ID, []session.EvalResult{{BatchID: b.ID, Member: 0, Y: 1}}); err != nil {
		t.Fatalf("tell after refused tell: %v", err)
	}

	if got := post(t, ts.URL+"/v1/sessions/import", paddedBody(`{"frame":"`, maxImportBody)); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized import: status %d, want 413", got)
	}
}
