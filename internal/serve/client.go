package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"threadfuser/internal/analysis"
	"threadfuser/internal/check"
	"threadfuser/internal/core"
)

// Client is a tfserve HTTP client: the CLIs' -server mode speaks through
// it, and the concurrency suite uses it to drive test servers.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8787".
	BaseURL string
	// Tenant, if set, is sent as the X-Tf-Tenant identity.
	Tenant string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
}

// RemoteError is a non-2xx response from the service, carrying the
// server's decoded error message.
type RemoteError struct {
	Status  int
	Message string
	// RetryAfter echoes the Retry-After header on shedding responses
	// (seconds; 0 when absent).
	RetryAfter int
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one request and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, body io.Reader, out any) error {
	u := strings.TrimRight(c.BaseURL, "/") + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("reading server response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		re := &RemoteError{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
		var msg struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &msg) == nil && msg.Error != "" {
			re.Message = msg.Error
		}
		fmt.Sscanf(resp.Header.Get("Retry-After"), "%d", &re.RetryAfter)
		return re
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("decoding server response: %w", err)
	}
	return nil
}

// fetch issues one request through c.do and returns the decoded response.
func fetch[T any](ctx context.Context, c *Client, method, path string, q url.Values, body io.Reader) (*T, error) {
	var out T
	if err := c.do(ctx, method, path, q, body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Analyze uploads a .tft stream to POST /v1/analyze under opts' warp
// size, formation and lock emulation.
func (c *Client) Analyze(ctx context.Context, tft io.Reader, opts core.Options) (*core.Report, error) {
	return fetch[core.Report](ctx, c, http.MethodPost, "/v1/analyze", analyzeQuery(opts), tft)
}

// Lint uploads a .tft stream to POST /v1/lint under opts' warp size,
// formation, minimum severity and passes.
func (c *Client) Lint(ctx context.Context, tft io.Reader, opts analysis.Options) (*analysis.Report, error) {
	return fetch[analysis.Report](ctx, c, http.MethodPost, "/v1/lint", lintQuery(opts), tft)
}

// Check uploads a .tft stream to POST /v1/check under opts' matrix axes
// and properties; the report carries name.
func (c *Client) Check(ctx context.Context, tft io.Reader, name string, opts check.Options) (*check.Report, error) {
	return fetch[check.Report](ctx, c, http.MethodPost, "/v1/check", checkQuery(name, opts), tft)
}

// Static requests GET /v1/static. The response comes from outside the
// program, so Static checks that it holds the requested oracle's result.
func (c *Client) Static(ctx context.Context, req StaticRequest) (*StaticReport, error) {
	rep, err := fetch[StaticReport](ctx, c, http.MethodGet, "/v1/static", req.query(), nil)
	if err == nil && rep.Mode() != req.mode() {
		return nil, fmt.Errorf("server response holds the %q result, not the requested %q", rep.Mode(), req.mode())
	}
	return rep, err
}

// Stats fetches GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	return fetch[Stats](ctx, c, http.MethodGet, "/v1/stats", nil, nil)
}
