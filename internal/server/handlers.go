package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"aware/internal/api"
	"aware/internal/core"
	"aware/internal/dataset"
	"aware/internal/obs"
	"aware/internal/stats"
)

// maxUploadBytes bounds CSV uploads (32 MiB).
const maxUploadBytes = 32 << 20

// routes builds the API's ServeMux. The method-and-pattern routing needs
// go >= 1.22. Every handler is wrapped in the per-endpoint instrumentation,
// keyed by the registration pattern, so GET /debug/metrics reports exactly
// the routes listed here.
//
// API endpoints are registered once, under the versioned api.Prefix, and
// every change to a session's exploration arrives as one step on
// POST /v1/sessions/{id}/steps. Infrastructure endpoints (/healthz, /metrics,
// /debug/*) address the process, not the API, and stay unversioned.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	infra := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle := func(pattern string, h http.HandlerFunc) {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			panic("server: route pattern without a method: " + pattern)
		}
		infra(method+" "+api.Prefix+path, h)
	}
	infra("GET /healthz", s.handleHealth)
	infra("GET /metrics", s.handlePromMetrics)
	infra("GET /debug/metrics", s.handleDebugMetrics)
	infra("GET /debug/trace", s.handleDebugTrace)
	if s.pprof {
		// Profiling handlers stay outside instrument: a 30-second CPU profile
		// would dominate every latency series it shares.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	handle("GET /datasets", s.handleListDatasets)
	handle("POST /datasets", s.handleUploadDataset)
	handle("POST /sessions", s.handleCreateSession)
	handle("GET /sessions", s.handleListSessions)
	handle("GET /sessions/{id}", s.handleGetSession)
	handle("DELETE /sessions/{id}", s.handleDeleteSession)
	handle("POST /sessions/{id}/restore", s.handleRestoreSession)
	handle("POST /sessions/{id}/steps", s.handleApplyStep)
	handle("GET /sessions/{id}/log", s.handleLog)
	handle("GET /sessions/{id}/gauge", s.handleGauge)
	handle("POST /sessions/{id}/holdout/validate", s.handleHoldoutValidate)
	handle("POST /sessions/{id}/holdout/replay", s.handleHoldoutReplay)
	handle("GET /sessions/{id}/report", s.handleReport)
	return mux
}

// --- encoding helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// writeError writes the JSON error envelope: the human-readable message plus
// the stable machine-readable code clients and routers dispatch on.
func writeError(w http.ResponseWriter, status int, code api.ErrorCode, msg string) {
	writeJSON(w, status, api.ErrorBody{Error: msg, Code: code})
}

// errInvalidBody marks request bodies that fail to decode, so writeErr can
// classify them as step_invalid without string matching.
var errInvalidBody = errors.New("invalid request body")

// writeErr maps a domain error onto an HTTP status and error code. Requests
// reach the domain layer only after routing, so unmapped errors are treated
// as bad input rather than server faults.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	code := api.CodeBadRequest
	switch {
	case errors.Is(err, ErrSessionNotFound):
		status, code = http.StatusNotFound, api.CodeSessionNotFound
	case errors.Is(err, ErrDatasetNotFound):
		status, code = http.StatusNotFound, api.CodeDatasetUnknown
	case errors.Is(err, core.ErrUnknownVisualization):
		status, code = http.StatusNotFound, api.CodeVizNotFound
	case errors.Is(err, core.ErrUnknownHypothesis):
		status, code = http.StatusNotFound, api.CodeHypothesisNotFound
	case errors.Is(err, ErrSessionExists):
		status, code = http.StatusConflict, api.CodeSessionExists
	case errors.Is(err, ErrDatasetExists):
		status, code = http.StatusConflict, api.CodeDatasetExists
	case errors.Is(err, core.ErrWealthExhausted):
		// The session is still alive but cannot fund further tests; the
		// client should stop exploring (Section 5.8 of the paper).
		status, code = http.StatusConflict, api.CodeWealthExhausted
	case errors.Is(err, core.ErrUnknownStep), errors.Is(err, errInvalidBody):
		code = api.CodeStepInvalid
	case errors.Is(err, ErrJournal):
		// The step was applied but could not be made durable.
		status, code = http.StatusInternalServerError, api.CodeJournalFailed
	}
	writeError(w, status, code, err.Error())
}

func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxUploadBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %w", errInvalidBody, err)
	}
	return nil
}

func sessionID(r *http.Request) (int64, error) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid session id %q", r.PathValue("id"))
	}
	return id, nil
}

// decodePredicateField parses an optional predicate field; absent or null
// means "no filter".
func decodePredicateField(raw json.RawMessage) (dataset.Predicate, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, nil
	}
	return dataset.UnmarshalPredicate(raw)
}

// The endpoint documents are defined by the wire contract in internal/api;
// the handlers keep their local names as aliases so the marshalling code
// reads the same as before the API was versioned.
type (
	testResultJSON           = api.TestResult
	vizJSON                  = api.Visualization
	stepResponse             = api.StepResponse
	gaugeResponse            = api.Gauge
	holdoutRequest           = api.HoldoutValidateRequest
	holdoutResponse          = api.HoldoutValidateResponse
	holdoutReplayRequest     = api.HoldoutReplayRequest
	holdoutReplayResponse    = api.HoldoutReplayResponse
	hypothesisValidationJSON = api.HypothesisValidation
)

func toTestResultJSON(t stats.TestResult) testResultJSON {
	return testResultJSON{
		Method:     t.Method,
		Statistic:  t.Statistic,
		PValue:     t.PValue,
		DF:         t.DF,
		EffectSize: t.EffectSize,
		N:          t.N,
	}
}

func toVizJSON(v *core.Visualization) vizJSON {
	out := vizJSON{ID: v.ID, Target: v.Target, Filter: "all", HypothesisID: v.HypothesisID}
	if v.Filter != nil {
		out.Filter = v.Filter.Describe()
	}
	return out
}

// --- health and datasets ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.Health{
		Status:   "ok",
		Node:     s.node,
		Sessions: s.manager.Len(),
		Datasets: len(s.registry.List()),
		Build:    s.build,
	})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.DatasetList{Datasets: s.registry.List()})
}

// handleUploadDataset registers a CSV body under ?name=. Column types default
// to categorical; override per column with the comma-separated query
// parameters ?float=, ?int= and ?bool=.
func (s *Server) handleUploadDataset(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "missing ?name= for the uploaded dataset")
		return
	}
	var specs []dataset.ColumnSpec
	seen := make(map[string]string)
	for _, override := range []struct {
		param string
		typ   dataset.ColumnType
	}{
		{"float", dataset.Float64},
		{"int", dataset.Int64},
		{"bool", dataset.Bool},
	} {
		for _, col := range strings.Split(r.URL.Query().Get(override.param), ",") {
			if col = strings.TrimSpace(col); col == "" {
				continue
			}
			if prev, dup := seen[col]; dup {
				writeError(w, http.StatusBadRequest, api.CodeBadRequest,
					fmt.Sprintf("column %q typed by both ?%s= and ?%s=", col, prev, override.param))
				return
			}
			seen[col] = override.param
			specs = append(specs, dataset.ColumnSpec{Name: col, Type: override.typ})
		}
	}
	table, err := dataset.ReadCSV(http.MaxBytesReader(w, r.Body, maxUploadBytes), specs)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.registry.Register(name, table); err != nil {
		writeErr(w, err)
		return
	}
	s.log.Info("dataset registered", "name", name, "rows", table.NumRows(), "columns", table.NumColumns())
	writeJSON(w, http.StatusCreated, describeDataset(name, table))
}

// --- session lifecycle ---

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	// The request body is a SessionSpec: the same serializable recipe the
	// journal persists as its header line.
	var spec SessionSpec
	if err := decodeBody(r, &spec); err != nil {
		writeErr(w, err)
		return
	}
	if spec.Dataset == "" {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "missing dataset name")
		return
	}
	table, err := s.registry.Get(spec.Dataset)
	if err != nil {
		writeErr(w, err)
		return
	}
	// The dataset's shared filter cache: sessions over the same (immutable)
	// dataset reuse each other's compiled filter bitmaps.
	sel, err := s.registry.Cache(spec.Dataset)
	if err != nil {
		writeErr(w, err)
		return
	}
	// The journal file (with its header) is written before the session is
	// published: IDs are guessable, and a step racing onto a fresh ID must
	// find the journal already there.
	info, err := s.manager.CreateWith(spec, table, sel, func(id int64) error {
		if s.journal == nil {
			return nil
		}
		return s.journal.Create(id, spec)
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	s.log.Info("session created", "id", info.ID, "dataset", info.Dataset, "policy", info.Policy, "alpha", info.Alpha)
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.SessionList{Sessions: s.manager.List()})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	info, err := s.manager.Info(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if !s.manager.Delete(id) {
		writeErr(w, fmt.Errorf("%w: %d", ErrSessionNotFound, id))
		return
	}
	s.removeJournals([]int64{id})
	s.log.Info("session deleted", "id", id)
	w.WriteHeader(http.StatusNoContent)
}

// --- the interactive loop ---
//
// Every mutation arrives as one step on POST /v1/sessions/{id}/steps and
// funnels through applyStep: one code path that applies the command under the
// session lock, journals it for restart durability, and snapshots the outcome
// before the lock is released.

// applyStep applies one step to the identified session, journals it, and
// returns its wire response. A traced request's span rides in on ctx and
// collects the step's span tree (kind, p-value path, kernels) under the
// session lock.
func (s *Server) applyStep(ctx context.Context, id int64, step core.Step) (stepResponse, error) {
	resp := stepResponse{Op: step.Kind()}
	span := obs.SpanFromContext(ctx)
	err := s.manager.With(id, func(sess *core.Session) error {
		stepStart := time.Now()
		res, err := sess.ApplyTraced(span, step)
		// A slow step is logged even when it fails (failing slow is still
		// worth an operator's attention) and even on untraced requests; the
		// request-level slow-op line carries the span tree.
		s.slow.Observe("step", step.Kind(), time.Since(stepStart), nil)
		if err != nil {
			return err
		}
		if s.journal != nil {
			if err := s.journal.Append(id, step); err != nil {
				// The step is applied — α-wealth is spent irrevocably — but
				// the journal no longer matches the session. Surface a 500
				// that tells the client NOT to retry: a retry would invest
				// wealth twice for one exploration action.
				return fmt.Errorf("%w (step %q was applied but is not durable; do not retry)", err, step.Kind())
			}
		}
		resp.Seq = res.Seq
		if res.Visualization != nil {
			v := toVizJSON(res.Visualization)
			resp.Visualization = &v
		}
		if res.Hypothesis != nil {
			e := res.Hypothesis.Entry()
			resp.Hypothesis = &e
		}
		resp.RemainingWealth = sess.Wealth()
		return nil
	})
	return resp, err
}

// handleApplyStep is the generic command endpoint: the body is one step in
// the core step wire format, e.g.
//
//	{"op": "add_visualization", "target": "gender",
//	 "predicate": {"type": "equals", "column": "salary_over_50k", "value": "true"}}
func (s *Server) handleApplyStep(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %w", errInvalidBody, err))
		return
	}
	step, err := core.UnmarshalStep(body)
	if err != nil {
		// Whatever the parse failure — malformed JSON, unknown op, bad field
		// type — the body is not a valid step: step_invalid, not bad_request.
		writeErr(w, fmt.Errorf("%w: %w", errInvalidBody, err))
		return
	}
	resp, err := s.applyStep(r.Context(), id, step)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

// handleLog returns the session's append-only step journal: the full
// exploration as serializable commands, replayable with core.Replay.
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	var log []core.AppliedStep
	err = s.manager.With(id, func(sess *core.Session) error {
		log = sess.Log() // already a copy, and non-nil even when empty
		return nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.LogResponse{Count: len(log), Steps: log})
}

func (s *Server) handleGauge(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	var resp gaugeResponse
	err = s.manager.With(id, func(sess *core.Session) error {
		g := sess.Gauge()
		resp = gaugeResponse{
			Alpha:           g.Alpha,
			Policy:          g.Policy,
			InitialWealth:   g.InitialWealth,
			RemainingWealth: g.RemainingWealth,
			Tests:           g.Tests,
			Discoveries:     g.Discoveries,
			Starred:         g.Starred,
			Exhausted:       g.Exhausted,
			Hypotheses:      make([]core.ReportEntry, 0, len(g.Hypotheses)),
			Rendered:        g.Render(),
		}
		for _, h := range g.Hypotheses {
			resp.Hypotheses = append(resp.Hypotheses, h.Entry())
		}
		return nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func parseAlternative(s string) (stats.Alternative, error) {
	switch s {
	case "", "two-sided":
		return stats.TwoSided, nil
	case "greater":
		return stats.Greater, nil
	case "less":
		return stats.Less, nil
	default:
		return stats.TwoSided, fmt.Errorf("invalid alternative %q (want two-sided, greater or less)", s)
	}
}

// handleHoldoutValidate re-tests a mean-comparison finding on a fresh
// exploration/validation split of the session's dataset (Section 4.1): the
// finding is confirmed only when both halves independently reject.
func (s *Server) handleHoldoutValidate(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	var req holdoutRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Attribute == "" {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "missing attribute to validate")
		return
	}
	pred, err := decodePredicateField(req.Predicate)
	if err != nil {
		writeErr(w, err)
		return
	}
	if pred == nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "holdout validation requires a predicate selecting the sub-population")
		return
	}
	alt, err := parseAlternative(req.Alternative)
	if err != nil {
		writeErr(w, err)
		return
	}
	fraction := req.ExplorationFraction
	if fraction == 0 {
		fraction = 0.5
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	// Copy the session's selection cache and alpha under the lock, then
	// validate outside it: tables and cached selections are immutable, so the
	// split and both tests never block the live session, and a filter the
	// session has already charted is served from its cache.
	var sel *dataset.SelectionCache
	alpha := req.Alpha
	err = s.manager.With(id, func(sess *core.Session) error {
		sel = sess.Selections()
		if alpha == 0 {
			alpha = sess.Alpha()
		}
		return nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	validator, err := core.NewHoldoutValidatorOn(sel, fraction, alpha, rand.New(rand.NewSource(seed)))
	if err != nil {
		writeErr(w, err)
		return
	}
	result, err := validator.CompareMeansSpan(req.Attribute, pred, alt, obs.SpanFromContext(r.Context()))
	if err != nil {
		writeErr(w, err)
		return
	}
	explRows, validRows := validator.Rows()
	writeJSON(w, http.StatusOK, holdoutResponse{
		Confirmed:       result.Confirmed,
		Alpha:           result.Alpha,
		ExplorationRows: explRows.Count(),
		ValidationRows:  validRows.Count(),
		Exploration:     toTestResultJSON(result.Exploration),
		Validation:      toTestResultJSON(result.Validation),
	})
}

// handleHoldoutReplay re-validates the session's whole step log on a fresh
// exploration/validation split (Section 4.1 generalized to every step kind):
// the recorded exploration is replayed independently on both halves and each
// hypothesis is confirmed only when both halves reject it.
func (s *Server) handleHoldoutReplay(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	var req holdoutReplayRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	fraction := req.ExplorationFraction
	if fraction == 0 {
		fraction = 0.5
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	spec, err := s.manager.Spec(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Snapshot the journal and dataset under the lock, then replay outside
	// it: tables are immutable and the copied steps are plain values, so the
	// (potentially long) double replay never blocks the live session.
	var steps []core.Step
	var data *dataset.Table
	alpha := req.Alpha
	err = s.manager.With(id, func(sess *core.Session) error {
		steps = core.StepsFromLog(sess.Log())
		data = sess.Data()
		if alpha == 0 {
			alpha = sess.Alpha()
		}
		return nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	if len(steps) == 0 {
		writeError(w, http.StatusConflict, api.CodeBadRequest, "session has an empty step log; nothing to replay")
		return
	}
	// A fresh policy instance for the two replays: the live session's policy
	// must not be shared (ReplayLog resets the policy it is given).
	opts, err := spec.Options()
	if err != nil {
		writeErr(w, err)
		return
	}
	validator, err := core.NewHoldoutValidator(data, fraction, alpha, rand.New(rand.NewSource(seed)))
	if err != nil {
		writeErr(w, err)
		return
	}
	replay, err := validator.ReplayLogSpan(opts, steps, obs.SpanFromContext(r.Context()))
	if err != nil {
		writeErr(w, err)
		return
	}
	explRows, validRows := validator.Rows()
	resp := holdoutReplayResponse{
		Alpha:           replay.Alpha,
		ExplorationRows: explRows.Count(),
		ValidationRows:  validRows.Count(),
		StepsReplayed:   len(steps),
		Confirmed:       replay.Confirmed,
		ActiveTotal:     replay.ActiveTotal,
		Hypotheses:      make([]hypothesisValidationJSON, 0, len(replay.Hypotheses)),
	}
	for _, hv := range replay.Hypotheses {
		resp.Hypotheses = append(resp.Hypotheses, hypothesisValidationJSON{
			Seq:          hv.Seq,
			Kind:         hv.Kind,
			HypothesisID: hv.HypothesisID,
			Null:         hv.Null,
			Status:       hv.Status.String(),
			Exploration:  toTestResultJSON(hv.Exploration),
			Validation:   toTestResultJSON(hv.Validation),
			Validated:    hv.Validated,
			Confirmed:    hv.Confirmed,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	var report core.Report
	err = s.manager.With(id, func(sess *core.Session) error {
		report = sess.Report(time.Now())
		return nil
	})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, report)
}
