package server

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"aware/internal/api"
)

// infraPaths are the unversioned endpoints that address the process, not the
// API.
var infraPaths = map[string]bool{"/healthz": true, "/metrics": true, "/debug/metrics": true, "/debug/trace": true}

// TestRouteTable pins the shape of the route table: every instrumented
// pattern is an infra path or lives under api.Prefix, each operation is
// registered once, and the only session-scoped POSTs are restore, steps and
// the two read-only hold-out checks.
func TestRouteTable(t *testing.T) {
	s, _ := newTestServer(t)
	endpoints := s.Metrics().snapshot(time.Now()).Endpoints
	if len(endpoints) != 17 {
		t.Errorf("%d instrumented patterns, want 17 (4 infra + 13 API)", len(endpoints))
	}
	operations := make(map[string]string)
	var sessionPosts []string
	for pattern := range endpoints {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			t.Errorf("pattern %q has no method", pattern)
			continue
		}
		if !infraPaths[path] && !strings.HasPrefix(path, api.Prefix+"/") {
			t.Errorf("pattern %q is neither infra nor under %s", pattern, api.Prefix)
		}
		op := method + " " + strings.TrimPrefix(path, api.Prefix)
		if prev, dup := operations[op]; dup {
			t.Errorf("operation %q registered twice: %q and %q", op, prev, pattern)
		}
		operations[op] = pattern
		if method == http.MethodPost && strings.HasPrefix(path, api.Prefix+"/sessions/{id}/") {
			sessionPosts = append(sessionPosts, strings.TrimPrefix(path, api.Prefix+"/sessions/{id}"))
		}
	}
	want := map[string]bool{"/restore": true, "/steps": true, "/holdout/validate": true, "/holdout/replay": true}
	if len(sessionPosts) != len(want) {
		t.Errorf("session-scoped POST routes %v, want exactly %v", sessionPosts, want)
	}
	for _, p := range sessionPosts {
		if !want[p] {
			t.Errorf("unexpected session-scoped POST route %s", p)
		}
	}
}

// TestMetricsHaveNoUnprefixedEndpoints scrapes /metrics after a short run,
// unprefixed requests included, and checks every endpoint label is an infra
// path or a v1 route.
func TestMetricsHaveNoUnprefixedEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	path := createSession(t, ts.URL)
	addVizStep(t, ts.URL, path)
	doJSON(t, http.MethodGet, ts.URL+path+"/gauge", nil, nil)
	doJSON(t, http.MethodGet, ts.URL+"/sessions/1/gauge", nil, nil)
	doJSON(t, http.MethodPost, ts.URL+"/sessions", map[string]any{"dataset": "census"}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	labels := regexp.MustCompile(`endpoint="([A-Z]+) ([^"]+)"`).FindAllStringSubmatch(string(raw), -1)
	if len(labels) == 0 {
		t.Fatal("exposition carries no endpoint labels")
	}
	for _, m := range labels {
		if path := m[2]; !infraPaths[path] && !strings.HasPrefix(path, api.Prefix+"/") {
			t.Errorf("exposition has unprefixed endpoint label %q", m[1]+" "+path)
		}
	}
}
