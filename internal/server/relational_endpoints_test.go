package server

import (
	"fmt"
	"io"
	"net/http"
	"testing"

	"aware/internal/api"
	"aware/internal/census"
	"aware/internal/core"
	"aware/internal/dataset"
)

// This file tests the relational steps — derive_column, join_dataset and
// group_by on POST /v1/sessions/{id}/steps — their journaling, and their
// restoration across a daemon restart (join replay needs the registry-backed
// catalog).

// registerOccupationDim registers a small dimension table keyed by the census
// occupation names under "occupations".
func registerOccupationDim(t *testing.T, s *Server) {
	t.Helper()
	n := len(census.Occupations)
	sectors := make([]string, n)
	pay := make([]float64, n)
	for i := range census.Occupations {
		sectors[i] = []string{"public", "private"}[i%2]
		pay[i] = 30000 + float64(i)*5000
	}
	dim, err := dataset.NewTable(
		dataset.NewCategoricalColumn("occupation", census.Occupations),
		dataset.NewCategoricalColumn("sector", sectors),
		dataset.NewFloatColumn("median_pay", pay),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Registry().Register("occupations", dim); err != nil {
		t.Fatal(err)
	}
}

// bucketHours is the derive step used throughout: annual hours, bucketed.
var bucketHours = map[string]any{
	"op":   "derive_column",
	"name": "annual_hours_bucket",
	"expression": map[string]any{
		"expr":  "bucket",
		"width": 250.0,
		"arg": map[string]any{
			"expr":  "mul",
			"left":  map[string]any{"expr": "col", "column": "hours_per_week"},
			"right": map[string]any{"expr": "const", "value": 52.0},
		},
	},
}

// TestRelationalEndpoints drives a session through derive, join and group-by
// over HTTP and reads the journal back.
func TestRelationalEndpoints(t *testing.T) {
	s, ts := newTestServer(t)
	registerOccupationDim(t, s)

	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, info.ID)

	type stepResp struct {
		Seq        int               `json:"seq"`
		Op         string            `json:"op"`
		Hypothesis *core.ReportEntry `json:"hypothesis"`
	}
	var derived stepResp
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", bucketHours, &derived), http.StatusCreated)
	if derived.Seq != 1 || derived.Op != "derive_column" {
		t.Fatalf("derive response %+v", derived)
	}

	var joined stepResp
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "join_dataset", "dataset": "occupations", "left_key": "occupation", "right_key": "occupation", "prefix": "dim_",
	}, &joined), http.StatusCreated)
	if joined.Seq != 2 || joined.Op != "join_dataset" {
		t.Fatalf("join response %+v", joined)
	}

	// The joined and derived columns are immediately explorable: a group-by
	// over one column from each side.
	var grouped stepResponse
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "group_by", "row": "dim_sector", "col": "annual_hours_bucket",
	}, &grouped), http.StatusCreated)
	if grouped.Hypothesis == nil || grouped.Hypothesis.ID == 0 {
		t.Fatalf("group-by recorded no hypothesis: %+v", grouped)
	}
	if grouped.RemainingWealth <= 0 {
		t.Fatalf("remaining wealth %v after one test", grouped.RemainingWealth)
	}

	// A plain visualization on a joined column still works.
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op":     "add_visualization",
		"target": "dim_sector",
		"predicate": map[string]any{
			"type": "gt", "column": "dim_median_pay", "threshold": 40000,
		},
	}, nil), http.StatusCreated)

	// The journal lists all four steps in order with relational kinds intact.
	var log struct {
		Count int                `json:"count"`
		Steps []core.AppliedStep `json:"steps"`
	}
	wantStatus(t, doJSON(t, http.MethodGet, base+"/log", nil, &log), http.StatusOK)
	wantKinds := []string{"derive_column", "join_dataset", "group_by", "add_visualization"}
	if log.Count != len(wantKinds) {
		t.Fatalf("log has %d steps, want %d", log.Count, len(wantKinds))
	}
	for i, entry := range log.Steps {
		if entry.Step.Kind() != wantKinds[i] {
			t.Errorf("journal entry %d is %q, want %q", i, entry.Step.Kind(), wantKinds[i])
		}
	}
}

// TestRelationalEndpointErrors pins the HTTP statuses and error codes of
// relational misuse.
func TestRelationalEndpointErrors(t *testing.T) {
	s, ts := newTestServer(t)
	registerOccupationDim(t, s)

	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, info.ID)

	ageCol := map[string]any{"expr": "col", "column": "age"}
	cases := []struct {
		name string
		body map[string]any
		want int
		code api.ErrorCode
	}{
		{"derive without expression", map[string]any{"op": "derive_column", "name": "x"}, http.StatusBadRequest, api.CodeStepInvalid},
		{"derive without name", map[string]any{"op": "derive_column", "expression": ageCol}, http.StatusBadRequest, api.CodeStepInvalid},
		{"derive duplicate column", map[string]any{"op": "derive_column", "name": "age", "expression": ageCol}, http.StatusBadRequest, api.CodeBadRequest},
		{"derive categorical operand", map[string]any{"op": "derive_column", "name": "x", "expression": map[string]any{"expr": "col", "column": "gender"}}, http.StatusBadRequest, api.CodeBadRequest},
		{"join unknown dataset", map[string]any{"op": "join_dataset", "dataset": "nope", "left_key": "occupation", "right_key": "occupation"}, http.StatusNotFound, api.CodeDatasetUnknown},
		{"join missing keys", map[string]any{"op": "join_dataset", "dataset": "occupations"}, http.StatusBadRequest, api.CodeStepInvalid},
		{"join key type mismatch", map[string]any{"op": "join_dataset", "dataset": "occupations", "left_key": "age", "right_key": "occupation"}, http.StatusBadRequest, api.CodeBadRequest},
		{"groupby missing attributes", map[string]any{"op": "group_by", "row": "gender"}, http.StatusBadRequest, api.CodeStepInvalid},
		{"groupby unknown column", map[string]any{"op": "group_by", "row": "gender", "col": "nope"}, http.StatusBadRequest, api.CodeBadRequest},
		{"groupby bad predicate", map[string]any{"op": "group_by", "row": "gender", "col": "education", "predicate": map[string]any{"type": "nope"}}, http.StatusBadRequest, api.CodeStepInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := doJSON(t, http.MethodPost, base+"/steps", tc.body, nil)
			wantStatus(t, resp, tc.want)
			if envelope := decodeErrorBody(t, resp); envelope.Code != tc.code {
				t.Errorf("code %q, want %q (message: %s)", envelope.Code, tc.code, envelope.Error)
			}
		})
	}

	// Failed relational steps never reach the journal.
	var log struct {
		Count int `json:"count"`
	}
	wantStatus(t, doJSON(t, http.MethodGet, base+"/log", nil, &log), http.StatusOK)
	if log.Count != 0 {
		t.Fatalf("journal has %d entries after only failed steps", log.Count)
	}

	// Relational steps on a missing session 404.
	wantStatus(t, doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/999/steps", bucketHours, nil), http.StatusNotFound)
}

// TestRelationalJournalSurvivesRestart replays derive + join + group-by from
// the journal on restart: the restored session must resolve the join through
// the registry-backed catalog and reproduce the same gauge.
func TestRelationalJournalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	s1, ts1 := newJournaledServer(t, dir)
	registerOccupationDim(t, s1)
	var info SessionInfo
	wantStatus(t, doJSON(t, http.MethodPost, ts1.URL+"/v1/sessions", map[string]any{"dataset": "census"}, &info), http.StatusCreated)
	base := fmt.Sprintf("%s/v1/sessions/%d", ts1.URL, info.ID)
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", bucketHours, nil), http.StatusCreated)
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "join_dataset", "dataset": "occupations", "left_key": "occupation", "right_key": "occupation", "prefix": "dim_",
	}, nil), http.StatusCreated)
	wantStatus(t, doJSON(t, http.MethodPost, base+"/steps", map[string]any{
		"op": "group_by", "row": "dim_sector", "col": "annual_hours_bucket",
	}, nil), http.StatusCreated)

	gaugeBefore := doJSON(t, http.MethodGet, base+"/gauge", nil, nil)
	wantStatus(t, gaugeBefore, http.StatusOK)
	before, _ := io.ReadAll(gaugeBefore.Body)

	s2, ts2 := newJournaledServer(t, dir)
	registerOccupationDim(t, s2)
	restored, err := s2.RestoreSessions()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d sessions, want 1", restored)
	}
	base2 := fmt.Sprintf("%s/v1/sessions/%d", ts2.URL, info.ID)
	gaugeAfter := doJSON(t, http.MethodGet, base2+"/gauge", nil, nil)
	wantStatus(t, gaugeAfter, http.StatusOK)
	after, _ := io.ReadAll(gaugeAfter.Body)
	if string(before) != string(after) {
		t.Errorf("gauge changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}

	// The restored session's table kept the derived and joined columns: a
	// group-by over them still works.
	wantStatus(t, doJSON(t, http.MethodPost, base2+"/steps", map[string]any{
		"op": "group_by", "row": "dim_sector", "col": "gender",
	}, nil), http.StatusCreated)
}
