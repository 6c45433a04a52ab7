package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aware/internal/api"
)

// Op classes. Every end-to-end latency metric is keyed by one of the first
// three; session lifecycle calls count as ops but belong to no latency class,
// and infrastructure calls (probes, scrapes) are not ops at all.
const (
	classStep     = "step"
	classRead     = "read"
	classValidate = "validate"
	classSession  = "session"
	classInfra    = "infra"
)

// exchange is one recorded HTTP round trip: the request as sent, the response
// as received, and the client-observed latency from handing the request to
// the transport until the last response byte was read.
type exchange struct {
	phase    string
	method   string
	path     string
	kind     string // create, delete, steps, visualizations, compare, gauge, report, log, validate, replay, infra
	class    string
	endpoint string // route pattern as the server's /metrics labels it
	session  int64
	start    time.Time
	end      time.Time
	status   int
	err      error
	reqBody  []byte
	respBody []byte
}

func (e *exchange) latency() time.Duration { return e.end.Sub(e.start) }

func (e *exchange) ok() bool { return e.err == nil && e.status >= 200 && e.status < 300 }

// recorder is the benchmark's http.RoundTripper: it wraps the keep-alive
// transport every analyst shares and keeps every exchange, raw, so latency
// percentiles come from the samples themselves and the answer check can
// replay each session after the loadgen scripts have deleted it.
type recorder struct {
	next *http.Transport

	mu    sync.Mutex
	phase string
	log   []*exchange
}

func newRecorder(conns int) *recorder {
	t := http.DefaultTransport.(*http.Transport).Clone()
	// One keep-alive connection per analyst, plus headroom for the
	// generator's own scrapes so they never force an analyst to re-dial.
	t.MaxIdleConns = conns + 4
	t.MaxIdleConnsPerHost = conns + 4
	return &recorder{next: t}
}

func (r *recorder) client() *http.Client {
	return &http.Client{Transport: r, Timeout: 120 * time.Second}
}

// setPhase labels every exchange that starts from now on.
func (r *recorder) setPhase(p string) {
	r.mu.Lock()
	r.phase = p
	r.mu.Unlock()
}

// exchanges returns the recorded exchanges of the given phases in start
// order.
func (r *recorder) exchanges(phases ...string) []*exchange {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*exchange
	for _, e := range r.log {
		for _, p := range phases {
			if e.phase == p {
				out = append(out, e)
				break
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	e := &exchange{method: req.Method, path: req.URL.Path}
	e.kind, e.class, e.endpoint, e.session = classify(req.Method, req.URL.Path)
	if req.Body != nil && req.Body != http.NoBody {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		e.reqBody = body
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	r.mu.Lock()
	e.phase = r.phase
	r.mu.Unlock()

	e.start = time.Now()
	resp, err := r.next.RoundTrip(req)
	if err == nil {
		e.status = resp.StatusCode
		e.respBody, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(e.respBody))
	}
	e.end = time.Now()
	e.err = err
	if e.kind == "create" && e.ok() {
		var info api.SessionInfo
		if json.Unmarshal(e.respBody, &info) == nil {
			e.session = info.ID
		}
	}
	r.mu.Lock()
	r.log = append(r.log, e)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// classify maps a request to its op kind, class, route pattern and session.
func classify(method, path string) (kind, class, endpoint string, session int64) {
	rest, ok := strings.CutPrefix(path, api.Prefix+"/sessions")
	if !ok {
		return "infra", classInfra, method + " " + path, 0
	}
	if rest == "" {
		return "create", classSession, method + " " + api.Prefix + "/sessions", 0
	}
	rest = strings.TrimPrefix(rest, "/")
	idPart, suffix, _ := strings.Cut(rest, "/")
	id, err := strconv.ParseInt(idPart, 10, 64)
	if err != nil {
		return "infra", classInfra, method + " " + path, 0
	}
	endpoint = method + " " + api.Prefix + "/sessions/{id}"
	if suffix != "" {
		endpoint += "/" + suffix
	}
	switch suffix {
	case "":
		if method == http.MethodDelete {
			return "delete", classSession, endpoint, id
		}
	case "steps", "visualizations", "compare":
		return suffix, classStep, endpoint, id
	case "gauge", "report", "log":
		return suffix, classRead, endpoint, id
	case "holdout/validate":
		return "validate", classValidate, endpoint, id
	case "holdout/replay":
		return "replay", classValidate, endpoint, id
	}
	return suffix, classInfra, endpoint, id
}

// isOp reports whether an exchange is an analyst operation (anything but the
// generator's own probes and scrapes).
func isOp(e *exchange) bool { return e.class != classInfra }

// classEndpoints lists the route patterns of each latency class, for reading
// the matching server-side histograms.
var classEndpoints = map[string][]string{
	classStep: {
		"POST " + api.Prefix + "/sessions/{id}/steps",
		"POST " + api.Prefix + "/sessions/{id}/visualizations",
		"POST " + api.Prefix + "/sessions/{id}/compare",
	},
	classRead: {
		"GET " + api.Prefix + "/sessions/{id}/gauge",
		"GET " + api.Prefix + "/sessions/{id}/report",
		"GET " + api.Prefix + "/sessions/{id}/log",
	},
	classValidate: {
		"POST " + api.Prefix + "/sessions/{id}/holdout/validate",
		"POST " + api.Prefix + "/sessions/{id}/holdout/replay",
	},
}

// --- exact statistics over raw samples ---

// quantile is the linear-interpolation (type 7) sample quantile of sorted
// values; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
