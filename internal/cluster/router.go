package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aware/internal/api"
	"aware/internal/client"
	"aware/internal/core"
	"aware/internal/obs"
	"aware/internal/server"
)

// Node is one awared replica behind the router.
type Node struct {
	// Name identifies the replica on the ring and in the X-Aware-Node header;
	// it must match the node's -node-name flag for placement to be observable.
	Name string
	// URL is the replica's base URL.
	URL string
	// JournalDir is where the replica writes its session journals. The router
	// reads it when the node dies to restore its sessions on successors —
	// journal-replay failover assumes the directory stays reachable (shared or
	// local filesystem) after the process is gone. Empty disables failover for
	// this node's sessions.
	JournalDir string
}

// Config configures a Router.
type Config struct {
	// Nodes are the replicas. At least one is required.
	Nodes []Node
	// Logger receives routing and failover logs; nil means slog.Default().
	Logger *slog.Logger
	// HTTPClient overrides the transport to the nodes (nil uses a dedicated
	// client with sane timeouts).
	HTTPClient *http.Client
	// VNodes is the virtual-node count per replica; 0 means DefaultVNodes.
	VNodes int
	// HealthInterval is the background health-prober period; 0 means 1s,
	// negative disables the prober (death is then only detected on proxy
	// errors).
	HealthInterval time.Duration
}

// member is one node plus its runtime state.
type member struct {
	node     Node
	client   *client.Client
	alive    atomic.Bool
	failures atomic.Int32 // consecutive prober failures
	failover sync.Once
}

// Router is the thin routing tier: it places sessions on replicas by
// consistent-hash affinity over session IDs, proxies the session API to the
// owning node, scatter-gathers the admin endpoints, and performs
// journal-replay failover when a node dies. Routing state is a handful of
// atomics; the router holds no session state of its own, so it restarts in
// microseconds and can itself be replicated behind a TCP balancer.
type Router struct {
	log     *slog.Logger
	ring    *Ring
	httpc   *http.Client
	members map[string]*member
	order   []string // fixed iteration order (sorted names)
	handler http.Handler
	nextID  atomic.Int64
	probe   time.Duration

	proxied   atomic.Int64 // requests forwarded to a node
	retried   atomic.Int64 // requests re-sent after a node died mid-flight
	failovers atomic.Int64 // nodes declared dead
	restored  atomic.Int64 // sessions restored onto successors
}

// NewRouter builds a router over the configured nodes. Call Start before
// serving to seed the session-ID sequence and begin health probing.
func NewRouter(cfg Config) (*Router, error) {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	names := make([]string, 0, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n.URL == "" {
			return nil, fmt.Errorf("cluster: node %q has no URL", n.Name)
		}
		names = append(names, n.Name)
	}
	ring, err := NewRing(names, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{Timeout: 2 * time.Minute}
	}
	probe := cfg.HealthInterval
	if probe == 0 {
		probe = time.Second
	}
	rt := &Router{
		log:     logger,
		ring:    ring,
		httpc:   httpc,
		members: make(map[string]*member, len(cfg.Nodes)),
		probe:   probe,
	}
	for _, n := range cfg.Nodes {
		m := &member{node: n, client: client.New(n.URL, client.WithHTTPClient(httpc))}
		m.alive.Store(true)
		rt.members[n.Name] = m
	}
	rt.order = ring.Nodes()
	rt.handler = rt.routes()
	return rt, nil
}

// routes builds the router's mux: the v1 API surface, aggregate infra
// endpoints, and a catch-all per-session proxy that stays transparent to
// endpoints added after the router was written. Unmatched paths and methods
// get the same JSON error envelope a node sends.
func (rt *Router) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("POST "+api.Prefix+"/sessions", rt.handleCreateSession)
	mux.HandleFunc("GET "+api.Prefix+"/sessions", rt.handleListSessions)
	mux.HandleFunc("GET "+api.Prefix+"/datasets", rt.handleAnyNode)
	mux.HandleFunc("POST "+api.Prefix+"/datasets", rt.handleBroadcast)
	mux.HandleFunc(api.Prefix+"/sessions/{id}", rt.handleSessionScoped)
	mux.HandleFunc(api.Prefix+"/sessions/{id}/{rest...}", rt.handleSessionScoped)
	return server.JSONErrors(mux)
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.handler }

// Start seeds the session-ID sequence from the live cluster (so router
// restarts never hand out an ID an existing session holds) and launches the
// background health prober. It fails if no node answers.
func (rt *Router) Start(ctx context.Context) error {
	var maxID int64
	reachable := 0
	for _, name := range rt.order {
		m := rt.members[name]
		list, err := m.client.Sessions(ctx)
		if err != nil {
			rt.log.Warn("node unreachable at router start", "node", name, "err", err)
			continue
		}
		reachable++
		for _, s := range list.Sessions {
			if s.ID > maxID {
				maxID = s.ID
			}
		}
		// Journals on disk can outlive the sessions a node currently reports
		// (a crashed node that has not been failed over yet); keep clear of
		// those IDs too.
		if m.node.JournalDir != "" {
			if journaled, _, err := server.LoadJournals(m.node.JournalDir); err == nil {
				for _, js := range journaled {
					if js.ID > maxID {
						maxID = js.ID
					}
				}
			}
		}
	}
	if reachable == 0 {
		return fmt.Errorf("cluster: no node reachable")
	}
	rt.reserveIDs(maxID)
	if rt.probe > 0 {
		go rt.probeLoop(ctx)
	}
	return nil
}

func (rt *Router) reserveIDs(floor int64) {
	for {
		cur := rt.nextID.Load()
		if cur >= floor || rt.nextID.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// probeLoop marks nodes dead after two consecutive failed health checks and
// triggers failover for them.
func (rt *Router) probeLoop(ctx context.Context) {
	ticker := time.NewTicker(rt.probe)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		for _, name := range rt.order {
			m := rt.members[name]
			if !m.alive.Load() {
				continue
			}
			probeCtx, cancel := context.WithTimeout(ctx, rt.probe*2+time.Second)
			_, err := m.client.Health(probeCtx)
			cancel()
			if err == nil {
				m.failures.Store(0)
				continue
			}
			if m.failures.Add(1) >= 2 {
				rt.declareDead(m, err)
			}
		}
	}
}

// alive is the ring predicate.
func (rt *Router) aliveNode(name string) bool {
	m, ok := rt.members[name]
	return ok && m.alive.Load()
}

// declareDead transitions a node to dead (fail-stop: a node never comes back;
// restart it under a new name or restart the router) and synchronously runs
// journal-replay failover so the caller can retry the in-flight request
// against the successor immediately. Concurrent callers block on the same
// sync.Once and proceed when the restore is complete.
func (rt *Router) declareDead(m *member, cause error) {
	if m.alive.CompareAndSwap(true, false) {
		rt.failovers.Add(1)
		rt.log.Warn("node declared dead", "node", m.node.Name, "err", cause)
	}
	m.failover.Do(func() { rt.failoverNode(m) })
}

// failoverNode restores the dead node's journaled sessions onto their ring
// successors by replaying each journal through POST /v1/sessions/{id}/restore.
// A session_exists answer means another actor (a concurrent router, an
// operator) already restored it — success, not conflict. Restored journals
// are removed so a later failover of the successor does not resurrect stale
// state; failed ones stay on disk for the operator.
func (rt *Router) failoverNode(m *member) {
	if m.node.JournalDir == "" {
		rt.log.Warn("dead node has no journal dir; its sessions are lost", "node", m.node.Name)
		return
	}
	journaled, skipped, err := server.LoadJournals(m.node.JournalDir)
	if err != nil {
		rt.log.Error("failover cannot read journals", "node", m.node.Name, "err", err)
		return
	}
	for _, reason := range skipped {
		rt.log.Warn("failover skipping unreadable journal", "node", m.node.Name, "journal", reason)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	restored := 0
	for _, js := range journaled {
		target, ok := rt.ownerFor(js.ID)
		if !ok {
			rt.log.Error("failover has no alive successor", "node", m.node.Name, "session", js.ID)
			continue
		}
		steps := make([]json.RawMessage, 0, len(js.Steps))
		marshalErr := false
		for _, step := range js.Steps {
			raw, err := core.MarshalStep(step)
			if err != nil {
				rt.log.Error("failover cannot re-encode step; keeping journal",
					"node", m.node.Name, "session", js.ID, "err", err)
				marshalErr = true
				break
			}
			steps = append(steps, raw)
		}
		if marshalErr {
			continue
		}
		_, err := target.client.RestoreSession(ctx, js.ID, api.RestoreSessionRequest{Spec: js.Spec, Steps: steps})
		var apiErr *api.Error
		if err != nil && !(errors.As(err, &apiErr) && apiErr.Code == api.CodeSessionExists) {
			rt.log.Error("failover restore failed; keeping journal",
				"node", m.node.Name, "session", js.ID, "target", target.node.Name, "err", err)
			continue
		}
		os.Remove(js.Path)
		restored++
		rt.restored.Add(1)
		rt.log.Info("session failed over", "session", js.ID,
			"from", m.node.Name, "to", target.node.Name, "steps", len(steps))
	}
	rt.log.Info("failover complete", "node", m.node.Name,
		"restored", restored, "journals", len(journaled))
}

// ownerFor returns the alive member owning a session ID.
func (rt *Router) ownerFor(id int64) (*member, bool) {
	name, ok := rt.ring.Owner(SessionKey(id), rt.aliveNode)
	if !ok {
		return nil, false
	}
	return rt.members[name], true
}

// --- error plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code api.ErrorCode, msg string) {
	writeJSON(w, status, api.ErrorBody{Error: msg, Code: code})
}

// writeClientErr relays a typed-client failure: an *api.Error passes through
// with its original status and code; a transport error becomes the one
// retryable code, node_unavailable.
func writeClientErr(w http.ResponseWriter, err error) {
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		writeError(w, apiErr.Status, apiErr.Code, apiErr.Message)
		return
	}
	writeError(w, http.StatusServiceUnavailable, api.CodeNodeUnavailable, err.Error())
}

// --- proxying ---

// maxProxyBody bounds buffered request bodies (mirrors the node's own upload
// cap). Bodies are buffered so a request can be replayed against a successor
// when the owner dies mid-flight.
const maxProxyBody = 32 << 20

// proxyTo forwards the request (with its buffered body) to one node and
// relays the response verbatim. Nothing is written to w on a transport error,
// so the caller can retry against another node.
func (rt *Router) proxyTo(m *member, w http.ResponseWriter, r *http.Request, body []byte) error {
	out, err := http.NewRequestWithContext(r.Context(), r.Method,
		strings.TrimRight(m.node.URL, "/")+r.URL.RequestURI(), strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	for k, vv := range r.Header {
		out.Header[k] = vv
	}
	resp, err := rt.httpc.Do(out)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vv := range resp.Header {
		h[k] = vv
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	rt.proxied.Add(1)
	return nil
}

// handleSessionScoped routes everything under /v1/sessions/{id} to the
// session's owner, walking the preference sequence when nodes die: a transport
// failure declares the node dead, runs failover synchronously, and re-sends
// the same buffered request to the successor — one retried request, invisible
// to the client. The retry is at-least-once: a node that died after applying a
// mutating step but before answering will have the step re-applied on the
// successor's replayed session.
func (rt *Router) handleSessionScoped(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("invalid session id %q", r.PathValue("id")))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "reading request body: "+err.Error())
		return
	}
	first := true
	for _, name := range rt.ring.Sequence(SessionKey(id)) {
		m := rt.members[name]
		if !m.alive.Load() {
			continue
		}
		if !first {
			rt.retried.Add(1)
		}
		first = false
		err := rt.proxyTo(m, w, r, body)
		if err == nil {
			return
		}
		if r.Context().Err() != nil {
			return // the client went away, not the node
		}
		rt.declareDead(m, err)
	}
	writeError(w, http.StatusServiceUnavailable, api.CodeNodeUnavailable, "no alive node for session")
}

// handleAnyNode forwards to the first alive node (datasets are registered on
// every replica, so any one can answer).
func (rt *Router) handleAnyNode(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "reading request body: "+err.Error())
		return
	}
	for _, name := range rt.order {
		m := rt.members[name]
		if !m.alive.Load() {
			continue
		}
		if err := rt.proxyTo(m, w, r, body); err == nil {
			return
		} else if r.Context().Err() != nil {
			return
		} else {
			rt.declareDead(m, err)
		}
	}
	writeError(w, http.StatusServiceUnavailable, api.CodeNodeUnavailable, "no alive node")
}

// handleBroadcast forwards the request to every alive node (dataset uploads
// must land everywhere a session could be placed). The first failing node
// fails the request; earlier nodes keep the upload, so re-sending must
// tolerate dataset_exists answers.
func (rt *Router) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "reading request body: "+err.Error())
		return
	}
	type reply struct {
		status int
		header http.Header
		body   []byte
	}
	var last *reply
	for _, name := range rt.order {
		m := rt.members[name]
		if !m.alive.Load() {
			continue
		}
		out, err := http.NewRequestWithContext(r.Context(), r.Method,
			strings.TrimRight(m.node.URL, "/")+r.URL.RequestURI(), strings.NewReader(string(body)))
		if err != nil {
			writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		for k, vv := range r.Header {
			out.Header[k] = vv
		}
		resp, err := rt.httpc.Do(out)
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			rt.declareDead(m, err)
			writeError(w, http.StatusServiceUnavailable, api.CodeNodeUnavailable,
				fmt.Sprintf("node %s died during broadcast: %v", name, err))
			return
		}
		respBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		rt.proxied.Add(1)
		if resp.StatusCode >= 400 {
			h := w.Header()
			for k, vv := range resp.Header {
				h[k] = vv
			}
			w.WriteHeader(resp.StatusCode)
			w.Write(respBody)
			return
		}
		last = &reply{status: resp.StatusCode, header: resp.Header, body: respBody}
	}
	if last == nil {
		writeError(w, http.StatusServiceUnavailable, api.CodeNodeUnavailable, "no alive node")
		return
	}
	h := w.Header()
	for k, vv := range last.header {
		h[k] = vv
	}
	w.WriteHeader(last.status)
	w.Write(last.body)
}

// --- placement-first creation ---

// handleCreateSession allocates the session ID router-side, places it on the
// ring, and creates it on the owner through the restore endpoint with an
// empty step log. The response is exactly a single node's create response,
// so clients cannot tell a cluster from one daemon.
func (rt *Router) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var spec api.SessionSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxProxyBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeStepInvalid, "invalid request body: "+err.Error())
		return
	}
	if spec.Dataset == "" {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "missing dataset name")
		return
	}
	// A session_exists answer means the ID raced something restored from a
	// journal the router never saw; burn it and take the next. Bounded so a
	// misbehaving node cannot loop the router forever.
	for attempt := 0; attempt < 100; attempt++ {
		id := rt.nextID.Add(1)
		m, ok := rt.ownerFor(id)
		if !ok {
			writeError(w, http.StatusServiceUnavailable, api.CodeNodeUnavailable, "no alive node")
			return
		}
		info, err := m.client.RestoreSession(r.Context(), id, api.RestoreSessionRequest{Spec: spec})
		if err == nil {
			rt.proxied.Add(1)
			// The typed-client hop strips the node's own response headers, so
			// re-stamp the owner: placement is observable from the very first
			// response a session produces.
			w.Header().Set(api.NodeHeader, m.node.Name)
			writeJSON(w, http.StatusCreated, info)
			return
		}
		var apiErr *api.Error
		if errors.As(err, &apiErr) {
			if apiErr.Code == api.CodeSessionExists {
				continue
			}
			writeClientErr(w, err)
			return
		}
		if r.Context().Err() != nil {
			return
		}
		rt.declareDead(m, err)
		// Retry the same ID on the successor: the failed create never
		// happened (restore installs the session before journaling).
		rt.nextID.CompareAndSwap(id, id-1)
	}
	writeError(w, http.StatusConflict, api.CodeSessionExists, "could not allocate a session id")
}

// --- scatter-gather ---

// handleListSessions merges every alive node's session list, sorted by ID. A
// node dying mid-scatter is declared dead and its sessions appear under their
// successor on the next call.
func (rt *Router) handleListSessions(w http.ResponseWriter, r *http.Request) {
	type result struct {
		m    *member
		list api.SessionList
		err  error
	}
	var wg sync.WaitGroup
	results := make([]result, 0, len(rt.order))
	for _, name := range rt.order {
		m := rt.members[name]
		if !m.alive.Load() {
			continue
		}
		results = append(results, result{m: m})
	}
	for i := range results {
		wg.Add(1)
		go func(res *result) {
			defer wg.Done()
			res.list, res.err = res.m.client.Sessions(r.Context())
		}(&results[i])
	}
	wg.Wait()
	merged := api.SessionList{Sessions: []api.SessionInfo{}}
	for _, res := range results {
		if res.err != nil {
			if r.Context().Err() == nil {
				rt.declareDead(res.m, res.err)
			}
			continue
		}
		merged.Sessions = append(merged.Sessions, res.list.Sessions...)
	}
	sort.Slice(merged.Sessions, func(a, b int) bool { return merged.Sessions[a].ID < merged.Sessions[b].ID })
	writeJSON(w, http.StatusOK, merged)
}

// NodeHealth is one replica's entry in the aggregate health document.
type NodeHealth struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Alive    bool   `json:"alive"`
	Sessions int    `json:"sessions"`
	Error    string `json:"error,omitempty"`
}

// ClusterHealth is the router's GET /healthz document. Sessions is the
// cluster-wide total, so tooling written against a single node's health
// document keeps working unchanged.
type ClusterHealth struct {
	Status    string       `json:"status"`
	Sessions  int          `json:"sessions"`
	Datasets  int          `json:"datasets"`
	Nodes     []NodeHealth `json:"nodes"`
	Proxied   int64        `json:"proxied"`
	Retried   int64        `json:"retried"`
	Failovers int64        `json:"failovers"`
	Restored  int64        `json:"restored"`
}

// handleHealth scatter-gathers every node's health. The cluster is "ok" when
// every configured node is alive and answering, "degraded" otherwise — a
// degraded cluster still serves every session that has an alive owner.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	out := ClusterHealth{
		Status:    "ok",
		Proxied:   rt.proxied.Load(),
		Retried:   rt.retried.Load(),
		Failovers: rt.failovers.Load(),
		Restored:  rt.restored.Load(),
	}
	type result struct {
		health api.Health
		err    error
	}
	results := make([]result, len(rt.order))
	var wg sync.WaitGroup
	for i, name := range rt.order {
		m := rt.members[name]
		if !m.alive.Load() {
			results[i].err = fmt.Errorf("declared dead")
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			results[i].health, results[i].err = m.client.Health(r.Context())
		}(i, m)
	}
	wg.Wait()
	for i, name := range rt.order {
		m := rt.members[name]
		nh := NodeHealth{Name: name, URL: m.node.URL, Alive: m.alive.Load()}
		if results[i].err != nil {
			nh.Error = results[i].err.Error()
			out.Status = "degraded"
		} else {
			nh.Sessions = results[i].health.Sessions
			out.Sessions += results[i].health.Sessions
			if results[i].health.Datasets > out.Datasets {
				out.Datasets = results[i].health.Datasets
			}
		}
		out.Nodes = append(out.Nodes, nh)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics scatter-gathers every alive node's Prometheus exposition and
// merges them into one document with a node label on every sample, plus the
// router's own counters. Operators scrape the router and see the cluster.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	type result struct {
		name string
		text string
		err  error
	}
	results := make([]result, 0, len(rt.order))
	for _, name := range rt.order {
		if rt.members[name].alive.Load() {
			results = append(results, result{name: name})
		}
	}
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(res *result) {
			defer wg.Done()
			res.text, res.err = rt.fetchMetrics(r.Context(), rt.members[res.name])
		}(&results[i])
	}
	wg.Wait()
	inputs := make([]NodeExposition, 0, len(results))
	for _, res := range results {
		if res.err != nil {
			rt.log.Warn("metrics scrape failed", "node", res.name, "err", res.err)
			continue
		}
		inputs = append(inputs, NodeExposition{Node: res.name, Text: res.text})
	}
	var own obs.ExpositionWriter
	own.Header("aware_router_proxied_total", "Requests the router forwarded to a node.", "counter")
	own.Sample("aware_router_proxied_total", nil, float64(rt.proxied.Load()))
	own.Header("aware_router_retried_total", "Requests re-sent to a successor after a node died mid-flight.", "counter")
	own.Sample("aware_router_retried_total", nil, float64(rt.retried.Load()))
	own.Header("aware_router_failovers_total", "Nodes declared dead.", "counter")
	own.Sample("aware_router_failovers_total", nil, float64(rt.failovers.Load()))
	own.Header("aware_router_sessions_restored_total", "Sessions restored onto successors by journal replay.", "counter")
	own.Sample("aware_router_sessions_restored_total", nil, float64(rt.restored.Load()))
	own.Header("aware_router_node_alive", "1 when the node is considered alive.", "gauge")
	for _, name := range rt.order {
		v := 0.0
		if rt.members[name].alive.Load() {
			v = 1.0
		}
		own.Sample("aware_router_node_alive", obs.L{obs.Label("node", name)}, v)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, MergeExpositions(inputs))
	io.WriteString(w, own.String())
}

func (rt *Router) fetchMetrics(ctx context.Context, m *member) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(m.node.URL, "/")+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}
