package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"aware/internal/api"
)

// decodeErrorBody asserts the response is the structured JSON envelope with a
// non-empty "error" message, a non-empty machine-readable "code" and the right
// Content-Type, and returns the envelope.
func decodeErrorBody(t *testing.T, resp *http.Response) api.ErrorBody {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading error body: %v", err)
	}
	var body api.ErrorBody
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("error body is not JSON: %q: %v", raw, err)
	}
	if body.Error == "" {
		t.Errorf("error body has no message: %q", raw)
	}
	if body.Code == "" {
		t.Errorf("error body has no machine-readable code: %q", raw)
	}
	return body
}

// TestErrorResponsesAreJSON covers the error paths of every endpoint: unknown
// routes (404 from the mux), wrong methods (405 from the mux), malformed
// bodies and invalid path values (400s from the handlers), and missing
// sessions (handler 404s). Every one must produce an application/json envelope
// with an "error" message and the stable machine-readable "code" for that
// failure — clients and the cluster router dispatch on the code, so it is
// table-tested per endpoint here. Every session mutation is a step, so the
// per-kind contracts (viz_not_found, hypothesis_not_found, dataset_unknown,
// step_invalid) are pinned on /steps bodies. API-surface cases run against the
// /v1 path, and their unprefixed twin must answer 404 not_found: the API is
// served under the prefix only.
func TestErrorResponsesAreJSON(t *testing.T) {
	_, ts := newTestServer(t)

	// A live session so the malformed-body cases get past routing.
	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)

	// A step body one byte over the upload cap.
	oversize := `{"op": "add_visualization", "target": "` + strings.Repeat("a", maxUploadBytes) + `"}`

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   api.ErrorCode
	}{
		// Router-level 404s: no pattern matches the path. The per-kind step
		// routes are gone; their steps go to /steps.
		{"unknown root path", http.MethodGet, "/no/such/route", "", http.StatusNotFound, api.CodeNotFound},
		{"unknown session subresource", http.MethodGet, "/sessions/1/nope", "", http.StatusNotFound, api.CodeNotFound},
		{"removed visualizations route", http.MethodPost, "/v1/sessions/1/visualizations", `{"target": "gender"}`, http.StatusNotFound, api.CodeNotFound},
		{"removed compare route", http.MethodPost, "/v1/sessions/1/compare", `{"a": 1, "b": 2}`, http.StatusNotFound, api.CodeNotFound},
		{"removed derive route", http.MethodPost, "/v1/sessions/1/derive", `{}`, http.StatusNotFound, api.CodeNotFound},
		{"removed join route", http.MethodPost, "/v1/sessions/1/join", `{}`, http.StatusNotFound, api.CodeNotFound},
		{"removed groupby route", http.MethodPost, "/v1/sessions/1/groupby", `{}`, http.StatusNotFound, api.CodeNotFound},
		{"removed star route", http.MethodPost, "/v1/sessions/1/hypotheses/1/star", `{"starred": true}`, http.StatusNotFound, api.CodeNotFound},

		// Router-level 405s: the path exists under another method.
		{"PUT sessions", http.MethodPut, "/sessions", "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
		{"GET steps", http.MethodGet, "/sessions/1/steps", "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
		{"DELETE gauge", http.MethodDelete, "/sessions/1/gauge", "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},
		{"PATCH report", http.MethodPatch, "/sessions/1/report", "", http.StatusMethodNotAllowed, api.CodeMethodNotAllowed},

		// Handler-level 400s: malformed bodies on every decoding endpoint are
		// step_invalid (the body failed to decode into the endpoint's document).
		{"create session bad body", http.MethodPost, "/sessions", `{"not json`, http.StatusBadRequest, api.CodeStepInvalid},
		{"steps bad body", http.MethodPost, "/sessions/1/steps", `{"op": 42}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"steps unknown op", http.MethodPost, "/sessions/1/steps", `{"op": "warp"}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"visualizations bad body", http.MethodPost, "/sessions/1/steps", `{"op": "add_visualization", "target": 7}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"compare bad body", http.MethodPost, "/sessions/1/steps", `{"op": "compare_visualizations", "a": "x"}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"star bad body", http.MethodPost, "/sessions/1/steps", `{"op": "star", "hypothesis": 1, "starred": "yes"}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"bad hypothesis id", http.MethodPost, "/sessions/1/steps", `{"op": "star", "hypothesis": "x"}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"derive without expression", http.MethodPost, "/sessions/1/steps", `{"op": "derive_column", "name": "x"}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"derive malformed expression", http.MethodPost, "/sessions/1/steps", `{"op": "derive_column", "name": "x", "expression": {"expr": "warp"}}`, http.StatusBadRequest, api.CodeStepInvalid},
		{"groupby bad predicate", http.MethodPost, "/sessions/1/steps", `{"op": "group_by", "row": "gender", "col": "education", "predicate": {"type": "nope"}}`, http.StatusBadRequest, api.CodeStepInvalid},
		// Runs on /v1 only: the unprefixed twin would answer 404 before the
		// client finished sending 32 MiB.
		{"steps oversize body", http.MethodPost, "/v1/sessions/1/steps", oversize, http.StatusBadRequest, api.CodeStepInvalid},
		{"holdout validate bad body", http.MethodPost, "/sessions/1/holdout/validate", `nope`, http.StatusBadRequest, api.CodeStepInvalid},
		{"holdout replay bad body", http.MethodPost, "/sessions/1/holdout/replay", `"`, http.StatusBadRequest, api.CodeStepInvalid},
		{"restore bad body", http.MethodPost, "/sessions/1/restore", `{`, http.StatusBadRequest, api.CodeStepInvalid},

		// Handler-level 400s: well-formed requests with client-shaped faults.
		{"upload dataset without name", http.MethodPost, "/datasets", "a,b\n1,2\n", http.StatusBadRequest, api.CodeBadRequest},
		{"holdout validate no attribute", http.MethodPost, "/sessions/1/holdout/validate", `{}`, http.StatusBadRequest, api.CodeBadRequest},
		{"bad session id", http.MethodGet, "/sessions/abc", "", http.StatusBadRequest, api.CodeBadRequest},

		// Handler-level 404s: valid shape, missing resources. session_not_found
		// vs dataset_unknown vs hypothesis_not_found matter to the router: only
		// session_not_found can mean "wrong replica".
		{"missing session", http.MethodGet, "/sessions/999999", "", http.StatusNotFound, api.CodeSessionNotFound},
		{"missing session delete", http.MethodDelete, "/sessions/999999", "", http.StatusNotFound, api.CodeSessionNotFound},
		{"missing session gauge", http.MethodGet, "/sessions/999999/gauge", "", http.StatusNotFound, api.CodeSessionNotFound},
		{"missing hypothesis star", http.MethodPost, "/sessions/1/steps", `{"op": "star", "hypothesis": 999}`, http.StatusNotFound, api.CodeHypothesisNotFound},
		{"missing viz compare", http.MethodPost, "/sessions/1/steps", `{"op": "compare_visualizations", "a": 998, "b": 999}`, http.StatusNotFound, api.CodeVizNotFound},
		{"unknown dataset", http.MethodPost, "/sessions", `{"dataset": "nope"}`, http.StatusNotFound, api.CodeDatasetUnknown},
		{"join unknown dataset", http.MethodPost, "/sessions/1/steps", `{"op": "join_dataset", "dataset": "nope", "left_key": "occupation", "right_key": "occupation"}`, http.StatusNotFound, api.CodeDatasetUnknown},

		// Conflict: restoring onto a live session ID.
		{"restore onto live session", http.MethodPost, "/sessions/1/restore", `{"spec": {"dataset": "census"}}`, http.StatusConflict, api.CodeSessionExists},
	}
	for _, tc := range cases {
		// An API-surface case holds its contract on /v1; the same request
		// without the prefix matches no route.
		prefixes := []string{""}
		if strings.HasPrefix(tc.path, "/sessions") || strings.HasPrefix(tc.path, "/datasets") {
			prefixes = []string{"/v1", ""}
		}
		for _, prefix := range prefixes {
			name, status, code := tc.name, tc.status, tc.code
			if prefix != "" {
				name = tc.name + " (v1)"
			} else if len(prefixes) > 1 {
				status, code = http.StatusNotFound, api.CodeNotFound
			}
			t.Run(name, func(t *testing.T) {
				var body io.Reader
				if tc.body != "" {
					body = strings.NewReader(tc.body)
				}
				req, err := http.NewRequest(tc.method, ts.URL+prefix+tc.path, body)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != status {
					raw, _ := io.ReadAll(resp.Body)
					t.Fatalf("%s %s: status %d, want %d (body: %.200s)", tc.method, prefix+tc.path, resp.StatusCode, status, raw)
				}
				envelope := decodeErrorBody(t, resp)
				if envelope.Code != code {
					t.Errorf("%s %s: code %q, want %q (message: %.200s)", tc.method, prefix+tc.path, envelope.Code, code, envelope.Error)
				}
				if envelope.Code.Retryable() {
					t.Errorf("%s %s: single-node server emitted retryable code %q; only the router may", tc.method, prefix+tc.path, envelope.Code)
				}
			})
		}
	}
}

// TestMethodNotAllowedKeepsAllowHeader checks that converting the mux's 405
// to JSON preserves the Allow header the mux computed.
func TestMethodNotAllowedKeepsAllowHeader(t *testing.T) {
	_, ts := newTestServer(t)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, http.MethodGet) {
		t.Errorf("Allow = %q, want it to include GET", allow)
	}
	if envelope := decodeErrorBody(t, resp); envelope.Code != api.CodeMethodNotAllowed {
		t.Errorf("code = %q, want %q", envelope.Code, api.CodeMethodNotAllowed)
	}
}
