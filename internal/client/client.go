// Package client is the typed Go client of the awared v1 API. It speaks the
// wire contract in internal/api — every endpoint, request document and error
// envelope — so the load generator, the cluster router's health prober, the
// examples and any other Go consumer share one tested request path instead of
// hand-rolling HTTP. Non-2xx responses decode into *api.Error, carrying the
// machine-readable code that tells a caller whether a retry is safe.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"aware/internal/api"
	"aware/internal/core"
)

// Call describes one completed API call, as delivered to the Observer: the
// route shape (not the concrete path, so calls aggregate by endpoint), the
// outcome, and the serving node from the X-Aware-Node header. Err is nil on
// any HTTP response — an *api.Error outcome is still a completed call — and
// non-nil only for transport failures.
type Call struct {
	Method   string
	Endpoint string
	Status   int
	Node     string
	Start    time.Time
	Duration time.Duration
	Err      error
}

// Observer receives every completed call, synchronously on the calling
// goroutine. Used by the load generator for per-endpoint latency accounting.
type Observer func(Call)

// Client is a typed client bound to one base URL. It is safe for concurrent
// use; the zero value is not usable — construct with New.
type Client struct {
	base     string
	httpc    *http.Client
	observer Observer
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (httptest clients,
// tuned transports). nil keeps the default.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.httpc = hc
		}
	}
}

// WithObserver registers the per-call hook.
func WithObserver(obs Observer) Option {
	return func(c *Client) { c.observer = obs }
}

// New builds a client for the server at baseURL (scheme://host[:port],
// trailing slash tolerated).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), httpc: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// BaseURL returns the server address the client is bound to.
func (c *Client) BaseURL() string { return c.base }

// do runs one JSON round trip. endpoint is the route shape used for
// observation ("POST /v1/sessions/{id}/steps"); path is the concrete path.
// body nil sends no payload; out nil discards the response document.
func (c *Client) do(ctx context.Context, method, endpoint, path string, body, out any) error {
	var rdr io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding %s body: %w", endpoint, err)
		}
		rdr = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rdr)
	if err != nil {
		return fmt.Errorf("client: %s: %w", endpoint, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.roundTrip(req, endpoint, out)
}

// roundTrip executes a prepared request, decodes the response (error envelope
// or document) and reports the call to the observer.
func (c *Client) roundTrip(req *http.Request, endpoint string, out any) error {
	call := Call{Method: req.Method, Endpoint: endpoint, Start: time.Now()}
	resp, err := c.httpc.Do(req)
	if err != nil {
		call.Duration = time.Since(call.Start)
		call.Err = err
		c.observe(call)
		return fmt.Errorf("client: %s: %w", endpoint, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	call.Status = resp.StatusCode
	call.Node = resp.Header.Get(api.NodeHeader)
	if resp.StatusCode >= 400 {
		apiErr := decodeError(resp)
		call.Duration = time.Since(call.Start)
		c.observe(call)
		return apiErr
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			call.Duration = time.Since(call.Start)
			call.Err = err
			c.observe(call)
			return fmt.Errorf("client: decoding %s response: %w", endpoint, err)
		}
	}
	call.Duration = time.Since(call.Start)
	c.observe(call)
	return nil
}

func (c *Client) observe(call Call) {
	if c.observer != nil {
		c.observer(call)
	}
}

// decodeError turns a non-2xx response into an *api.Error. A body that is not
// the error envelope (a proxy's text page, a truncated response) falls back
// to classifying by status alone.
func decodeError(resp *http.Response) *api.Error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var body api.ErrorBody
	if err := json.Unmarshal(raw, &body); err != nil || body.Code == "" {
		msg := strings.TrimSpace(string(raw))
		if msg == "" {
			msg = http.StatusText(resp.StatusCode)
		}
		return api.ErrorFromStatus(resp.StatusCode, msg)
	}
	return &api.Error{Status: resp.StatusCode, Code: body.Code, Message: body.Error}
}

func sessionPath(id int64, suffix string) string {
	return api.Prefix + "/sessions/" + strconv.FormatInt(id, 10) + suffix
}

// --- infrastructure ---

// Health fetches the node's /healthz document. Infrastructure endpoints are
// unversioned: they address the process, not the API.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var out api.Health
	err := c.do(ctx, http.MethodGet, "GET /healthz", "/healthz", nil, &out)
	return out, err
}

// --- datasets ---

// Datasets lists the registered datasets.
func (c *Client) Datasets(ctx context.Context) (api.DatasetList, error) {
	var out api.DatasetList
	err := c.do(ctx, http.MethodGet, "GET /v1/datasets", api.Prefix+"/datasets", nil, &out)
	return out, err
}

// UploadDataset registers a CSV stream under name. Columns default to
// categorical; floatCols, intCols and boolCols override per column.
func (c *Client) UploadDataset(ctx context.Context, name string, csv io.Reader, floatCols, intCols, boolCols []string) (api.DatasetInfo, error) {
	q := url.Values{"name": {name}}
	for _, override := range []struct {
		param string
		cols  []string
	}{{"float", floatCols}, {"int", intCols}, {"bool", boolCols}} {
		if len(override.cols) > 0 {
			q.Set(override.param, strings.Join(override.cols, ","))
		}
	}
	endpoint := "POST /v1/datasets"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+api.Prefix+"/datasets?"+q.Encode(), csv)
	if err != nil {
		return api.DatasetInfo{}, fmt.Errorf("client: %s: %w", endpoint, err)
	}
	req.Header.Set("Content-Type", "text/csv")
	var out api.DatasetInfo
	if err := c.roundTrip(req, endpoint, &out); err != nil {
		return api.DatasetInfo{}, err
	}
	return out, nil
}

// --- session lifecycle ---

// CreateSession opens a session from a spec.
func (c *Client) CreateSession(ctx context.Context, spec api.SessionSpec) (api.SessionInfo, error) {
	var out api.SessionInfo
	err := c.do(ctx, http.MethodPost, "POST /v1/sessions", api.Prefix+"/sessions", spec, &out)
	return out, err
}

// Sessions lists every live session.
func (c *Client) Sessions(ctx context.Context) (api.SessionList, error) {
	var out api.SessionList
	err := c.do(ctx, http.MethodGet, "GET /v1/sessions", api.Prefix+"/sessions", nil, &out)
	return out, err
}

// Session fetches one session's summary.
func (c *Client) Session(ctx context.Context, id int64) (api.SessionInfo, error) {
	var out api.SessionInfo
	err := c.do(ctx, http.MethodGet, "GET /v1/sessions/{id}", sessionPath(id, ""), nil, &out)
	return out, err
}

// DeleteSession tears a session down.
func (c *Client) DeleteSession(ctx context.Context, id int64) error {
	return c.do(ctx, http.MethodDelete, "DELETE /v1/sessions/{id}", sessionPath(id, ""), nil, nil)
}

// RestoreSession installs a session under an explicit ID from its spec and
// step log — the cluster failover path. With no steps it is placement-first
// creation under a router-chosen ID.
func (c *Client) RestoreSession(ctx context.Context, id int64, req api.RestoreSessionRequest) (api.SessionInfo, error) {
	var out api.SessionInfo
	err := c.do(ctx, http.MethodPost, "POST /v1/sessions/{id}/restore", sessionPath(id, "/restore"), req, &out)
	return out, err
}

// --- the interactive loop ---

// ApplyStep applies one typed step, e.g. core.AddVisualization{…}: every
// change to a session's exploration goes through POST /v1/sessions/{id}/steps.
func (c *Client) ApplyStep(ctx context.Context, id int64, step core.Step) (api.StepResponse, error) {
	raw, err := core.MarshalStep(step)
	if err != nil {
		return api.StepResponse{}, fmt.Errorf("client: encoding step: %w", err)
	}
	return c.ApplyRawStep(ctx, id, raw)
}

// ApplyRawStep applies one step already in the core step wire format.
func (c *Client) ApplyRawStep(ctx context.Context, id int64, step json.RawMessage) (api.StepResponse, error) {
	var out api.StepResponse
	err := c.do(ctx, http.MethodPost, "POST /v1/sessions/{id}/steps", sessionPath(id, "/steps"), step, &out)
	return out, err
}

// Log fetches the session's replayable step journal.
func (c *Client) Log(ctx context.Context, id int64) (api.LogResponse, error) {
	var out api.LogResponse
	err := c.do(ctx, http.MethodGet, "GET /v1/sessions/{id}/log", sessionPath(id, "/log"), nil, &out)
	return out, err
}

// Gauge fetches the session's risk gauge.
func (c *Client) Gauge(ctx context.Context, id int64) (api.Gauge, error) {
	var out api.Gauge
	err := c.do(ctx, http.MethodGet, "GET /v1/sessions/{id}/gauge", sessionPath(id, "/gauge"), nil, &out)
	return out, err
}

// HoldoutValidate re-tests one finding on a fresh exploration/validation
// split.
func (c *Client) HoldoutValidate(ctx context.Context, id int64, req api.HoldoutValidateRequest) (api.HoldoutValidateResponse, error) {
	var out api.HoldoutValidateResponse
	err := c.do(ctx, http.MethodPost, "POST /v1/sessions/{id}/holdout/validate", sessionPath(id, "/holdout/validate"), req, &out)
	return out, err
}

// HoldoutReplay re-validates the whole step log on a fresh split.
func (c *Client) HoldoutReplay(ctx context.Context, id int64, req api.HoldoutReplayRequest) (api.HoldoutReplayResponse, error) {
	var out api.HoldoutReplayResponse
	err := c.do(ctx, http.MethodPost, "POST /v1/sessions/{id}/holdout/replay", sessionPath(id, "/holdout/replay"), req, &out)
	return out, err
}

// Report exports the session report.
func (c *Client) Report(ctx context.Context, id int64) (core.Report, error) {
	var out core.Report
	err := c.do(ctx, http.MethodGet, "GET /v1/sessions/{id}/report", sessionPath(id, "/report"), nil, &out)
	return out, err
}
