package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := &server{
		runner:  engine.NewRunner(engine.NewPool(2), engine.NewCache(0)),
		store:   engine.NewStore(),
		timeout: 30 * time.Second,
		ctx:     context.Background(),
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return ts
}

const checkBody = `{"left":"coin:biased:x:0.625","right":"coin:fair:x","envs":["coin:env:x"],"eps":0.125,"q1":3}`

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func metricCounter(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters[name]
}

// TestCheckEndToEndWithCacheHits is the daemon acceptance test: a check
// request is served end to end, and a second identical request hits the
// memoization cache (visible in /v1/metrics).
func TestCheckEndToEndWithCacheHits(t *testing.T) {
	ts := newTestServer(t)

	hits0 := metricCounter(t, ts.URL, "engine.cache.hits")
	var first, second struct {
		Kind  string `json:"kind"`
		Check struct {
			Holds   bool    `json:"Holds"`
			MaxDist float64 `json:"MaxDist"`
		} `json:"check"`
	}
	resp, body := post(t, ts.URL+"/v1/check", checkBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first check: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatalf("first check: %v in %s", err, body)
	}
	if first.Kind != "check" || !first.Check.Holds {
		t.Fatalf("first check result: %s", body)
	}

	resp, body = post(t, ts.URL+"/v1/check", checkBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second check: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Check.Holds != first.Check.Holds || second.Check.MaxDist != first.Check.MaxDist {
		t.Errorf("cached check disagrees: %+v vs %+v", second, first)
	}
	if hits := metricCounter(t, ts.URL, "engine.cache.hits") - hits0; hits == 0 {
		t.Error("second identical check produced no cache hits")
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/check?async=1", checkBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", resp.StatusCode, body)
	}
	var rec struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID == "" {
		t.Fatalf("no job id in %s", body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(r.Body).Decode(&got)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Status == engine.StatusDone {
			break
		}
		if got.Status == engine.StatusFailed {
			t.Fatal("async job failed")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", got.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The job list includes it.
	r, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var list []json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Errorf("jobs list has %d entries", len(list))
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := post(t, ts.URL+"/v1/check", `{"nope": true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/v1/check", `{"left":"coin:fair:x"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("incomplete spec: status %d", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/v1/jobs/j9999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", r.StatusCode)
	}
}

// TestStoreEndpoints pins the result store's HTTP surface: as soon
// as GET /v1/jobs/{id} reports done, GET /v1/store/{fingerprint} returns
// the job's result with its run report stripped, byte for byte; and a PUT
// is refused with 405 without changing anything in the store.
func TestStoreEndpoints(t *testing.T) {
	dir := t.TempDir()
	d := startDurableDaemon(t, dir)
	id := submitAsync(t, d, simulateBody(300))
	var rec engine.JobRecord
	deadline := time.Now().Add(30 * time.Second)
	for rec.Status != engine.StatusDone {
		if rec.Status == engine.StatusFailed {
			t.Fatalf("job failed: %s", rec.Err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", rec.Status)
		}
		_, body := getBody(t, d.ts.URL+"/v1/jobs/"+id)
		rec = engine.JobRecord{}
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Result == nil || rec.Fingerprint == "" {
		t.Fatalf("done record without result or fingerprint: %+v", rec)
	}
	rec.Result.Report = nil
	want, err := json.Marshal(rec.Result)
	if err != nil {
		t.Fatal(err)
	}
	storeURL := d.ts.URL + "/v1/store/" + rec.Fingerprint
	resp, got := getBody(t, storeURL)
	if resp.StatusCode != http.StatusOK || string(got) != string(want) {
		t.Fatalf("GET store right after done: status %d\n got %s\nwant %s", resp.StatusCode, got, want)
	}

	puts := d.dm.Store().Stats().Puts
	for _, key := range []string{rec.Fingerprint, "forged-key"} {
		req, err := http.NewRequest(http.MethodPut, d.ts.URL+"/v1/store/"+key, strings.NewReader(`{"kind":"forged"}`))
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("PUT /v1/store/%s: status %d, want 405", key, r.StatusCode)
		}
	}
	if st := d.dm.Store().Stats(); st.Puts != puts || st.Entries != 1 {
		t.Errorf("store changed by PUT: puts %d -> %d, entries %d", puts, st.Puts, st.Entries)
	}
	if resp, got := getBody(t, storeURL); resp.StatusCode != http.StatusOK || string(got) != string(want) {
		t.Errorf("stored result changed by PUT: status %d: %s", resp.StatusCode, got)
	}
	if resp, _ := getBody(t, d.ts.URL+"/v1/store/forged-key"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET forged key: status %d, want 404", resp.StatusCode)
	}
}
