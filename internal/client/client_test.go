package client

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aware/internal/api"
	"aware/internal/server"
)

func TestUploadDatasetReportsOverriddenSchema(t *testing.T) {
	srv, err := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	csv := "city,temp\nBoston,8\nPhoenix,31\nBoston,7\n"
	info, err := New(ts.URL).UploadDataset(context.Background(), "weather", strings.NewReader(csv), []string{"temp"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "weather" || info.Rows != 3 {
		t.Fatalf("upload answered %+v", info)
	}
	kinds := map[string]string{}
	for _, col := range info.Schema {
		kinds[col.Name] = col.Kind
	}
	if kinds["temp"] != "float64" || kinds["city"] != "categorical" {
		t.Errorf("schema = %+v, want temp float64 and city categorical", info.Schema)
	}
}

// TestDecodeErrorWithoutEnvelope covers responses that did not come from
// awared's JSON error writer, such as a proxy's plain-text error page: the
// code falls back to the status class and the message to the body text.
func TestDecodeErrorWithoutEnvelope(t *testing.T) {
	cases := []struct {
		status   int
		body     string
		wantCode api.ErrorCode
		wantMsg  string
	}{
		{http.StatusBadGateway, "upstream connect error\n", api.CodeInternal, "upstream connect error"},
		{http.StatusNotFound, "404 page not found\n", api.CodeNotFound, "404 page not found"},
		{http.StatusInternalServerError, "", api.CodeInternal, "Internal Server Error"},
	}
	for _, tc := range cases {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(tc.status)
			io.WriteString(w, tc.body)
		}))
		_, err := New(ts.URL).Health(context.Background())
		ts.Close()
		var apiErr *api.Error
		if !errors.As(err, &apiErr) {
			t.Fatalf("status %d: error %v is not an *api.Error", tc.status, err)
		}
		if apiErr.Status != tc.status || apiErr.Code != tc.wantCode || apiErr.Message != tc.wantMsg {
			t.Errorf("status %d: got %+v, want code %s message %q", tc.status, apiErr, tc.wantCode, tc.wantMsg)
		}
		if apiErr.Code.Retryable() {
			t.Errorf("status %d: code %s must not be retryable", tc.status, apiErr.Code)
		}
	}
}
