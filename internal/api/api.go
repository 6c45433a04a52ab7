// Package api is the versioned wire contract of the awared HTTP API: the /v1
// route prefix, the JSON error envelope with its machine-readable codes, the
// node-identity header, and the request/response document types of every v1
// endpoint. The server (internal/server), the typed client (internal/client)
// and the cluster router (internal/cluster) all compile against this one
// package, so the API surface and its consumers cannot drift apart silently.
package api

import (
	"encoding/json"
	"time"

	"aware/internal/core"
	"aware/internal/investing"
	"aware/internal/obs"
)

// Prefix is the versioned route prefix. Every session and dataset endpoint is
// served under it and nowhere else: an unprefixed path answers 404 not_found.
// Infrastructure endpoints (/healthz, /metrics, /debug/*) are deliberately
// unversioned: they address the process, not the API.
const Prefix = "/v1"

// NodeHeader is the response header carrying the serving node's name on every
// response, so cluster placement (which replica handled a session's request)
// is observable from the client side.
const NodeHeader = "X-Aware-Node"

// SessionSpec is the serializable recipe for a session: the creation request
// verbatim, with zero values meaning "the defaults". It doubles as the header
// line of a session's journal file — and as the restore payload a cluster
// router ships to a successor node — so any holder of a spec plus a step log
// can rebuild the exact session.
type SessionSpec struct {
	// Dataset names a registered dataset.
	Dataset string `json:"dataset"`
	// Alpha is the mFDR control level; 0 means the paper default 0.05.
	Alpha float64 `json:"alpha,omitempty"`
	// Policy selects the investing rule by name (see investing.NewNamedPolicy);
	// empty means the paper's ε-hybrid default.
	Policy string `json:"policy,omitempty"`
	// TargetPower tunes the n_H1 annotation; 0 means 0.8.
	TargetPower float64 `json:"target_power,omitempty"`
}

// Options materializes the core session options the spec describes. It
// constructs a fresh policy instance on every call: investing policies are
// stateful, so each session — and each hold-out replay of its log — needs its
// own.
func (spec SessionSpec) Options() (core.Options, error) {
	opts := core.Options{Alpha: spec.Alpha, TargetPower: spec.TargetPower}
	if spec.Policy != "" {
		alpha := spec.Alpha
		if alpha == 0 {
			alpha = investing.DefaultAlpha
		}
		policy, err := investing.NewNamedPolicy(spec.Policy, alpha)
		if err != nil {
			return core.Options{}, err
		}
		opts.Policy = policy
	}
	return opts, nil
}

// SessionInfo is the lock-free summary of a managed session used in listings
// and creation responses.
type SessionInfo struct {
	ID         int64     `json:"id"`
	Dataset    string    `json:"dataset"`
	Alpha      float64   `json:"alpha"`
	Policy     string    `json:"policy"`
	CreatedAt  time.Time `json:"created_at"`
	LastActive time.Time `json:"last_active"`
}

// SessionList is the GET /v1/sessions document.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}

// RestoreSessionRequest is the POST /v1/sessions/{id}/restore body: the
// session's creation spec plus its step log in the core step wire format, one
// raw document per step. With an empty step list it creates a fresh session
// under the explicit ID — which is how a cluster router performs
// placement-first creation.
type RestoreSessionRequest struct {
	Spec  SessionSpec       `json:"spec"`
	Steps []json.RawMessage `json:"steps,omitempty"`
}

// Health is the GET /healthz document of one node.
type Health struct {
	Status   string        `json:"status"`
	Node     string        `json:"node,omitempty"`
	Sessions int           `json:"sessions"`
	Datasets int           `json:"datasets"`
	Build    obs.BuildInfo `json:"build"`
}

// ColumnInfo is one column of a dataset's schema as reported by /v1/datasets.
type ColumnInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// SnapshotInfo describes the snapshot file backing a dataset, when there is
// one.
type SnapshotInfo struct {
	Path      string `json:"path"`
	SizeBytes int64  `json:"size_bytes"`
}

// DatasetInfo summarizes one registered dataset for listings. Columns remains
// the plain name list for compatibility; Schema adds per-column kinds,
// Storage reports where the vectors live ("mmap" when they alias a snapshot
// mapping, "heap" otherwise) and Snapshot points at the backing file for
// snapshot-loaded datasets.
type DatasetInfo struct {
	Name     string        `json:"name"`
	Rows     int           `json:"rows"`
	Columns  []string      `json:"columns"`
	Schema   []ColumnInfo  `json:"schema"`
	Storage  string        `json:"storage"`
	Snapshot *SnapshotInfo `json:"snapshot,omitempty"`
}

// DatasetList is the GET /v1/datasets document.
type DatasetList struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// TestResult is the wire form of a stats.TestResult.
type TestResult struct {
	Method     string  `json:"method"`
	Statistic  float64 `json:"statistic"`
	PValue     float64 `json:"p_value"`
	DF         float64 `json:"df"`
	EffectSize float64 `json:"effect_size"`
	N          int     `json:"n"`
}

// Visualization is the wire form of a visualization.
type Visualization struct {
	ID           int    `json:"id"`
	Target       string `json:"target"`
	Filter       string `json:"filter"`
	HypothesisID int    `json:"hypothesis_id,omitempty"`
}

// StepResponse is the wire form of an applied step.
type StepResponse struct {
	// Seq is the step's position in the session journal.
	Seq int `json:"seq"`
	// Op echoes the step kind that was applied.
	Op string `json:"op"`
	// Visualization is set for add_visualization steps.
	Visualization *Visualization `json:"visualization,omitempty"`
	// Hypothesis is set for steps that created a hypothesis.
	Hypothesis      *core.ReportEntry `json:"hypothesis,omitempty"`
	RemainingWealth float64           `json:"remaining_wealth"`
}

// LogResponse is the GET /v1/sessions/{id}/log document: the session's
// append-only step journal.
type LogResponse struct {
	Count int                `json:"count"`
	Steps []core.AppliedStep `json:"steps"`
}

// CreateVisualizationRequest is the body of the former per-kind
// POST /v1/sessions/{id}/visualizations route, which the add_visualization
// step replaced. It stays because the benchmark (perfbench) decodes
// recorded exchanges with it.
type CreateVisualizationRequest struct {
	// Target is the visualized attribute.
	Target string `json:"target"`
	// Predicate is the filter chain in the dataset predicate JSON format;
	// absent or null means the whole dataset (rule 1: descriptive, no
	// hypothesis).
	Predicate json.RawMessage `json:"predicate,omitempty"`
}

// CreateVisualizationResponse is the response of the former visualizations
// route. It stays because the benchmark (perfbench) decodes recorded
// exchanges with it.
type CreateVisualizationResponse struct {
	Visualization Visualization `json:"visualization"`
	// Hypothesis is the auto-created rule-2 hypothesis, or null for an
	// unfiltered (descriptive) visualization.
	Hypothesis      *core.ReportEntry `json:"hypothesis"`
	RemainingWealth float64           `json:"remaining_wealth"`
}

// CompareRequest is the body of the former per-kind
// POST /v1/sessions/{id}/compare route, which the compare_* steps replaced. It
// stays because the benchmark (perfbench) decodes recorded exchanges
// with it.
type CompareRequest struct {
	// A and B are the visualization IDs to compare (rule 3).
	A int `json:"a"`
	B int `json:"b"`
	// MeansOf switches to an explicit Welch t-test on this numeric attribute.
	MeansOf string `json:"means_of,omitempty"`
	// DistributionsOf switches to a two-sample Kolmogorov–Smirnov test.
	DistributionsOf string `json:"distributions_of,omitempty"`
}

// HypothesisResponse is the response of the former compare route: one
// tracked hypothesis plus the session's wealth. It stays because the
// benchmark driver (perfbench) decodes recorded exchanges with it.
type HypothesisResponse struct {
	Hypothesis      core.ReportEntry `json:"hypothesis"`
	RemainingWealth float64          `json:"remaining_wealth"`
}

// Gauge is the wire form of the risk gauge (Figure 2 A).
type Gauge struct {
	Alpha           float64            `json:"alpha"`
	Policy          string             `json:"policy"`
	InitialWealth   float64            `json:"initial_wealth"`
	RemainingWealth float64            `json:"remaining_wealth"`
	Tests           int                `json:"tests"`
	Discoveries     int                `json:"discoveries"`
	Starred         int                `json:"starred"`
	Exhausted       bool               `json:"exhausted"`
	Hypotheses      []core.ReportEntry `json:"hypotheses"`
	// Rendered is the textual gauge of the CLI front-end, for human clients.
	Rendered string `json:"rendered"`
}

// HoldoutValidateRequest is the POST /v1/sessions/{id}/holdout/validate body.
type HoldoutValidateRequest struct {
	// Attribute is the numeric attribute whose means are compared between the
	// filtered sub-population and its complement.
	Attribute string `json:"attribute"`
	// Predicate selects the sub-population, in the predicate JSON format.
	Predicate json.RawMessage `json:"predicate"`
	// ExplorationFraction is the share of rows in the exploration half;
	// 0 means 0.5.
	ExplorationFraction float64 `json:"exploration_fraction,omitempty"`
	// Alpha is the per-half significance level; 0 means the session's level.
	Alpha float64 `json:"alpha,omitempty"`
	// Seed drives the random split; 0 means 1, so repeated calls validate on
	// the same split unless the client asks otherwise.
	Seed int64 `json:"seed,omitempty"`
	// Alternative is "two-sided" (default), "greater" or "less".
	Alternative string `json:"alternative,omitempty"`
}

// HoldoutValidateResponse is its response document.
type HoldoutValidateResponse struct {
	Confirmed       bool       `json:"confirmed"`
	Alpha           float64    `json:"alpha"`
	ExplorationRows int        `json:"exploration_rows"`
	ValidationRows  int        `json:"validation_rows"`
	Exploration     TestResult `json:"exploration"`
	Validation      TestResult `json:"validation"`
}

// HoldoutReplayRequest is the POST /v1/sessions/{id}/holdout/replay body.
type HoldoutReplayRequest struct {
	// ExplorationFraction is the share of rows in the exploration half;
	// 0 means 0.5.
	ExplorationFraction float64 `json:"exploration_fraction,omitempty"`
	// Alpha is the per-half significance level; 0 means the session's level.
	Alpha float64 `json:"alpha,omitempty"`
	// Seed drives the random split; 0 means 1.
	Seed int64 `json:"seed,omitempty"`
}

// HypothesisValidation is the wire form of one replayed hypothesis' hold-out
// verdict.
type HypothesisValidation struct {
	Seq          int        `json:"seq"`
	Kind         string     `json:"kind"`
	HypothesisID int        `json:"hypothesis_id"`
	Null         string     `json:"null"`
	Status       string     `json:"status"`
	Exploration  TestResult `json:"exploration"`
	Validation   TestResult `json:"validation"`
	Validated    bool       `json:"validated"`
	Confirmed    bool       `json:"confirmed"`
}

// HoldoutReplayResponse is the POST /v1/sessions/{id}/holdout/replay response.
type HoldoutReplayResponse struct {
	Alpha           float64                `json:"alpha"`
	ExplorationRows int                    `json:"exploration_rows"`
	ValidationRows  int                    `json:"validation_rows"`
	StepsReplayed   int                    `json:"steps_replayed"`
	Confirmed       int                    `json:"confirmed"`
	ActiveTotal     int                    `json:"active_total"`
	Hypotheses      []HypothesisValidation `json:"hypotheses"`
}
