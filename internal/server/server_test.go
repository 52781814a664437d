package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cqa/internal/catalog"
	"cqa/internal/core"
	"cqa/internal/match"
	"cqa/internal/workload"
)

func newTestServer() *Server {
	return New(Config{CacheSize: 256, MaxWorkers: 8})
}

// do issues one request against the handler and decodes the JSON reply
// into out (skipped when out is nil).
func do(t *testing.T, h http.Handler, method, path, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: invalid JSON: %v\n%s", method, path, err, rec.Body.String())
		}
	}
	return rec
}

func TestHealthzAndMetrics(t *testing.T) {
	h := newTestServer().Handler()
	if rec := do(t, h, "GET", "/healthz", "", nil); rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz: %d %q", rec.Code, rec.Body.String())
	}
	rec := do(t, h, "GET", "/metrics", "", nil)
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	for _, frag := range []string{"cqa_uptime_seconds", "cqa_plancache_hits_total", "cqa_store_databases"} {
		if !strings.Contains(rec.Body.String(), frag) {
			t.Errorf("metrics missing %q:\n%s", frag, rec.Body.String())
		}
	}
}

func TestClassifyEndpoint(t *testing.T) {
	h := newTestServer().Handler()
	var resp classifyResponse
	rec := do(t, h, "POST", "/v1/classify", `{"query": "R(x | y), S(y | z)"}`, &resp)
	if rec.Code != 200 || resp.Class != "FO" || resp.Cached {
		t.Fatalf("cold classify: %d %+v", rec.Code, resp)
	}
	// A textual variant hits the same cached plan.
	rec = do(t, h, "POST", "/v1/classify", `{"query": "  S(y | z) , R(x | y) "}`, &resp)
	if rec.Code != 200 || !resp.Cached || resp.Query != "R(x | y), S(y | z)" {
		t.Fatalf("warm classify: %d %+v", rec.Code, resp)
	}
	var conp classifyResponse
	do(t, h, "POST", "/v1/classify", `{"query": "R(x | y), S(u | y)"}`, &conp)
	if conp.Class != "coNP-complete" || !conp.HasStrongCycle {
		t.Errorf("coNP classify: %+v", conp)
	}
}

func TestClassifyErrors(t *testing.T) {
	h := newTestServer().Handler()
	if rec := do(t, h, "POST", "/v1/classify", `{not json`, nil); rec.Code != 400 {
		t.Errorf("malformed JSON: %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/classify", `{}`, nil); rec.Code != 400 {
		t.Errorf("missing query: %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/classify", `{"query": "R(("}`, nil); rec.Code != 400 {
		t.Errorf("syntax error: %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/classify", `{"query": "R(x | y), R(y | z)"}`, nil); rec.Code != 400 {
		t.Errorf("self-join: %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/v1/nope", "", nil); rec.Code != 404 {
		t.Errorf("unknown route: %d", rec.Code)
	}
}

func TestCertainInlineFactsAllEngines(t *testing.T) {
	h := newTestServer().Handler()
	body := func(engine string) string {
		return fmt.Sprintf(`{"query": "R(x | y), S(y | z)", "engine": %q,
			"facts": "R(a | b)\nS(b | c)\n"}`, engine)
	}
	for _, engine := range []string{"auto", "fo", "ptime", "conp"} {
		var resp certainResponse
		rec := do(t, h, "POST", "/v1/certain", body(engine), &resp)
		if rec.Code != 200 || !resp.Certain {
			t.Errorf("engine %s: %d %+v", engine, rec.Code, resp)
		}
		want := engine
		if engine == "auto" {
			want = "fo"
		}
		if resp.Engine != want {
			t.Errorf("engine %s: dispatched to %s", engine, resp.Engine)
		}
	}
	// The repair-enumeration oracle is not a serving engine.
	for _, engine := range []string{"zzz", "naive"} {
		rec := do(t, h, "POST", "/v1/certain", body(engine), nil)
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != 400 || er.Code != "bad_request" {
			t.Errorf("engine %s: %d %s, want 400 bad_request", engine, rec.Code, rec.Body.String())
		}
	}
	// Forcing FO on a cyclic query is unprocessable.
	rec := do(t, h, "POST", "/v1/certain",
		`{"query": "R0(x | y), S0(y | x)", "engine": "fo", "facts": "R0(a | 1)\nS0(1 | a)\n"}`, nil)
	if rec.Code != 422 {
		t.Errorf("fo on cyclic: %d %s", rec.Code, rec.Body.String())
	}
	// A mode-c violation in inline facts is a client error.
	rec = do(t, h, "POST", "/v1/certain",
		`{"query": "T#c(x | y)", "facts": "T#c(a | 1)\nT#c(a | 2)\n"}`, nil)
	if rec.Code != 400 {
		t.Errorf("mode-c violation: %d", rec.Code)
	}
}

func TestCertainStoredDB(t *testing.T) {
	h := newTestServer().Handler()
	rec := do(t, h, "PUT", "/v1/db/prod", "R(a | b)\nR(a | dead)\nS(b | c)\n", nil)
	if rec.Code != 200 {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	var resp certainResponse
	rec = do(t, h, "POST", "/v1/certain", `{"query": "R(x | y), S(y | z)", "db": "prod"}`, &resp)
	if rec.Code != 200 || resp.Certain || resp.DB == nil || resp.DB.Version != 1 {
		t.Fatalf("stored db: %d %+v", rec.Code, resp)
	}
	// Replacing the database bumps the version new requests see.
	do(t, h, "PUT", "/v1/db/prod", "R(a | b)\nS(b | c)\n", nil)
	rec = do(t, h, "POST", "/v1/certain", `{"query": "R(x | y), S(y | z)", "db": "prod"}`, &resp)
	if rec.Code != 200 || !resp.Certain || resp.DB.Version != 2 {
		t.Fatalf("after swap: %d %+v", rec.Code, resp)
	}
	if rec := do(t, h, "POST", "/v1/certain", `{"query": "R(x | y)", "db": "missing"}`, nil); rec.Code != 404 {
		t.Errorf("unknown db: %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/certain", `{"query": "R(x | y)"}`, nil); rec.Code != 400 {
		t.Errorf("neither db nor facts: %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/certain", `{"query": "R(x | y)", "db": "prod", "facts": "R(a | b)\n"}`, nil); rec.Code != 400 {
		t.Errorf("both db and facts: %d", rec.Code)
	}
	// Stored signature R(a | b) conflicts with a composite-key query.
	if rec := do(t, h, "POST", "/v1/certain", `{"query": "R(x, y | z)", "db": "prod"}`, nil); rec.Code != 400 {
		t.Errorf("schema mismatch: %d %s", rec.Code, rec.Body.String())
	}
}

// TestIndexCacheCounters: N requests against one named-snapshot version
// build the index exactly once — the /metrics counters show one miss and
// N-1 hits, i.e. zero per-request index builds after the first touch.
func TestIndexCacheCounters(t *testing.T) {
	h := newTestServer().Handler()
	if rec := do(t, h, "PUT", "/v1/db/prod", "R(a | b)\nR(a | dead)\nS(b | c)\n", nil); rec.Code != 200 {
		t.Fatalf("upload: %d", rec.Code)
	}
	const requests = 6
	for i := 0; i < requests; i++ {
		body := `{"query": "R(x | y), S(y | z)", "db": "prod"}`
		if i%2 == 1 {
			body = `{"query": "R(x | y), S(y | z)", "free": ["x"], "db": "prod"}`
			if rec := do(t, h, "POST", "/v1/answers", body, nil); rec.Code != 200 {
				t.Fatalf("answers %d: %d", i, rec.Code)
			}
			continue
		}
		if rec := do(t, h, "POST", "/v1/certain", body, nil); rec.Code != 200 {
			t.Fatalf("certain %d: %d", i, rec.Code)
		}
	}
	metric := func() (hits, misses int) {
		rec := do(t, h, "GET", "/metrics", "", nil)
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if strings.HasPrefix(line, "cqa_indexcache_hits_total ") {
				fmt.Sscanf(line, "cqa_indexcache_hits_total %d", &hits)
			}
			if strings.HasPrefix(line, "cqa_indexcache_misses_total ") {
				fmt.Sscanf(line, "cqa_indexcache_misses_total %d", &misses)
			}
		}
		return hits, misses
	}
	hits, misses := metric()
	if misses != 1 || hits != requests-1 {
		t.Fatalf("hits=%d misses=%d; want %d, 1 (one build per snapshot version)", hits, misses, requests-1)
	}
	// A new version of the snapshot costs exactly one more build.
	do(t, h, "PUT", "/v1/db/prod", "R(a | b)\nS(b | c)\n", nil)
	if rec := do(t, h, "POST", "/v1/certain", `{"query": "R(x | y), S(y | z)", "db": "prod"}`, nil); rec.Code != 200 {
		t.Fatalf("after swap: %d", rec.Code)
	}
	if hits, misses = metric(); misses != 2 || hits != requests-1 {
		t.Errorf("after swap: hits=%d misses=%d; want %d, 2", hits, misses, requests-1)
	}
}

// answersBody is a client's decoding of an answers response: the
// answer table as the objects it is rendered to.
type answersBody struct {
	answersResponse
	Answers []map[string]string `json:"answers"`
}

func TestAnswersEndpoint(t *testing.T) {
	h := newTestServer().Handler()
	body := `{"query": "Product(pid | sid), Supplier(sid | 'DE')", "free": ["pid"],
		"facts": "Product(p1 | acme)\nProduct(p2 | globex)\nProduct(p2 | initech)\nSupplier(acme | DE)\nSupplier(globex | DE)\nSupplier(initech | US)\n"}`
	var resp answersBody
	rec := do(t, h, "POST", "/v1/answers", body, &resp)
	if rec.Code != 200 {
		t.Fatalf("answers: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Count != 1 || resp.Answers[0]["pid"] != "p1" {
		t.Errorf("answers = %+v", resp)
	}
	if rec := do(t, h, "POST", "/v1/answers", `{"query": "R(x | y)", "facts": "R(a | b)\n"}`, nil); rec.Code != 400 {
		t.Errorf("missing free: %d", rec.Code)
	}
	// An unknown free variable is a request defect: 400 bad_request,
	// the status a cluster-routed front returns too.
	rec = do(t, h, "POST", "/v1/answers", `{"query": "R(x | y)", "free": ["nope"], "facts": "R(a | b)\n"}`, nil)
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), `"code": "bad_request"`) {
		t.Errorf("unknown free var: %d %s", rec.Code, rec.Body.String())
	}
}

func TestRewriteEndpoint(t *testing.T) {
	h := newTestServer().Handler()
	var resp rewriteResponse
	rec := do(t, h, "POST", "/v1/rewrite", `{"query": "R(x | y), S(y | 'b')"}`, &resp)
	if rec.Code != 200 || resp.Dialect != "logic" || !strings.Contains(resp.Rewriting, "∃") {
		t.Fatalf("logic rewrite: %d %+v", rec.Code, resp)
	}
	rec = do(t, h, "POST", "/v1/rewrite", `{"query": "R(x | y), S(y | 'b')", "dialect": "sql"}`, &resp)
	if rec.Code != 200 || !strings.Contains(resp.Rewriting, "NOT EXISTS") {
		t.Fatalf("sql rewrite: %d %+v", rec.Code, resp)
	}
	if rec := do(t, h, "POST", "/v1/rewrite", `{"query": "R0(x | y), S0(y | x)"}`, nil); rec.Code != 422 {
		t.Errorf("non-FO rewrite: %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/rewrite", `{"query": "R(x | y)", "dialect": "cobol"}`, nil); rec.Code != 400 {
		t.Errorf("unknown dialect: %d", rec.Code)
	}
}

func TestCatalogEndpoint(t *testing.T) {
	h := newTestServer().Handler()
	var entries []catalogEntry
	rec := do(t, h, "GET", "/v1/catalog", "", &entries)
	if rec.Code != 200 || len(entries) != len(catalog.Entries()) {
		t.Fatalf("catalog: %d, %d entries", rec.Code, len(entries))
	}
}

func TestDBLifecycle(t *testing.T) {
	h := newTestServer().Handler()
	var snap snapshotInfo
	rec := do(t, h, "PUT", "/v1/db/d1", "R(a | b)\nR(a | c)\n", &snap)
	if rec.Code != 200 || snap.Facts != 2 || snap.Blocks != 1 || snap.Version != 1 {
		t.Fatalf("put: %d %+v", rec.Code, snap)
	}
	rec = do(t, h, "GET", "/v1/db/d1", "", &snap)
	if rec.Code != 200 || snap.Name != "d1" {
		t.Fatalf("get: %d %+v", rec.Code, snap)
	}
	var list []snapshotInfo
	rec = do(t, h, "GET", "/v1/db", "", &list)
	if rec.Code != 200 || len(list) != 1 {
		t.Fatalf("list: %d %+v", rec.Code, list)
	}
	if rec := do(t, h, "DELETE", "/v1/db/d1", "", nil); rec.Code != 204 {
		t.Errorf("delete: %d", rec.Code)
	}
	if rec := do(t, h, "GET", "/v1/db/d1", "", nil); rec.Code != 404 {
		t.Errorf("get after delete: %d", rec.Code)
	}
	if rec := do(t, h, "DELETE", "/v1/db/d1", "", nil); rec.Code != 404 {
		t.Errorf("double delete: %d", rec.Code)
	}
	if rec := do(t, h, "PUT", "/v1/db/bad", "R(a | b\n", nil); rec.Code != 400 {
		t.Errorf("malformed upload: %d", rec.Code)
	}
	if rec := do(t, h, "PUT", "/v1/db/bad", "T#c(a | 1)\nT#c(a | 2)\n", nil); rec.Code != 400 {
		t.Errorf("mode-c violating upload: %d", rec.Code)
	}
}

// TestCertainAllCatalogQueries serves every catalog query over HTTP on a
// generated instance and cross-checks the answer against the in-process
// engine — the acceptance check that FO, P, and coNP engines are all
// reachable through /v1/certain.
func TestCertainAllCatalogQueries(t *testing.T) {
	h := newTestServer().Handler()
	engines := map[string]bool{}
	rng := rand.New(rand.NewSource(1))
	p := workload.DefaultDBParams()
	p.SeedMatches = 2
	for _, e := range catalog.Entries() {
		q := e.MustQuery()
		d := workload.RandomDB(rng, q, p)
		plan, err := core.Compile(q)
		if err != nil {
			t.Fatalf("%s: compile: %v", e.Name, err)
		}
		want, err := plan.CertainIndexedCtx(context.Background(), match.NewIndex(d), core.Options{})
		if err != nil {
			t.Fatalf("%s: local: %v", e.Name, err)
		}
		payload, err := json.Marshal(certainRequest{Query: e.Query, Facts: d.String() + "\n"})
		if err != nil {
			t.Fatal(err)
		}
		var resp certainResponse
		rec := do(t, h, "POST", "/v1/certain", string(payload), &resp)
		if rec.Code != 200 {
			t.Fatalf("%s: %d %s", e.Name, rec.Code, rec.Body.String())
		}
		if resp.Certain != want.Certain || resp.Class != want.Class.String() {
			t.Errorf("%s: served %+v, local %+v", e.Name, resp, want)
		}
		engines[resp.Engine] = true
	}
	for _, engine := range []string{"fo", "ptime", "conp"} {
		if !engines[engine] {
			t.Errorf("engine %s never dispatched across the catalog", engine)
		}
	}
}

// TestConcurrentCertainAndUploads hammers the plan cache from 32
// goroutines while snapshots are swapped underneath; run with -race.
// The admission gate has a slot per goroutine, so no reader is shed
// (TestAdmissionShedding covers shedding).
func TestConcurrentCertainAndUploads(t *testing.T) {
	srv := New(Config{CacheSize: 8, MaxWorkers: 32})
	h := srv.Handler()
	queries := []string{
		"R(x | y), S(y | z)",
		"R0(x | y), S0(y | x)",
		"R(x | y), S(u | y)",
		"A(x | y), B(y | z), C(z | w)",
	}
	if rec := do(t, h, "PUT", "/v1/db/hot", "R(a | b)\nS(b | c)\n", nil); rec.Code != 200 {
		t.Fatal("seed upload failed")
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g%8 == 0 {
					// Writers swap in a fresh snapshot.
					facts := fmt.Sprintf("R(a | b%d)\nS(b%d | c)\n", i, i)
					req := httptest.NewRequest("PUT", "/v1/db/hot", strings.NewReader(facts))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != 200 {
						t.Errorf("writer %d: %d %s", g, rec.Code, rec.Body.String())
						return
					}
					continue
				}
				qtext := queries[(g+i)%len(queries)]
				body, _ := json.Marshal(certainRequest{Query: qtext, DB: "hot"})
				req := httptest.NewRequest("POST", "/v1/certain", strings.NewReader(string(body)))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Errorf("reader %d: %d %s", g, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := srv.Cache().Stats()
	if st.Hits == 0 {
		t.Error("no cache hits under concurrency")
	}
}

func TestDBMutateEndpoint(t *testing.T) {
	h := newTestServer().Handler()
	if rec := do(t, h, "PUT", "/v1/db/prod", "R(a | 1)\nR(a | 2)\nS(1 | z)\n", nil); rec.Code != 200 {
		t.Fatalf("put: %d %s", rec.Code, rec.Body.String())
	}
	var resp mutateResponse
	rec := do(t, h, "POST", "/v1/db/prod/facts",
		`{"insert": ["R(b | 1)"], "delete": ["R(a | 2)"], "upsert": [["S(1 | z)", "S(1 | w)"]]}`, &resp)
	if rec.Code != 200 {
		t.Fatalf("mutate: %d %s", rec.Code, rec.Body.String())
	}
	if resp.DB.Version != 2 || resp.DB.Facts != 4 {
		t.Errorf("db = %+v", resp.DB)
	}
	if resp.Stats.Inserted != 3 || resp.Stats.Deleted != 2 || resp.Stats.Upserts != 1 {
		t.Errorf("stats = %+v", resp.Stats)
	}

	// Write-then-read: a query against the name sees the new version.
	var cert certainResponse
	rec = do(t, h, "POST", "/v1/certain", `{"query": "R(x | y), S(y | z)", "db": "prod"}`, &cert)
	if rec.Code != 200 {
		t.Fatalf("certain: %d %s", rec.Code, rec.Body.String())
	}
	if cert.DB == nil || cert.DB.Version != 2 {
		t.Errorf("read saw %+v, want version 2", cert.DB)
	}
	if !cert.Certain {
		// R(b | 1) joins S(1 | z) and S(1 | w)... but block S(1) is now
		// uncertain between z and w; block R(a) is the singleton R(a | 1)
		// joining S(1)'s block too. Every repair keeps one S(1 | *) fact,
		// and both satisfy the join, so the query is certain.
		t.Error("mutated database should certainly satisfy the query")
	}

	// An idempotent replay publishes nothing new.
	var again mutateResponse
	do(t, h, "POST", "/v1/db/prod/facts", `{"insert": ["R(b | 1)"]}`, &again)
	if again.DB.Version != 2 || again.Stats.Noops != 1 {
		t.Errorf("idempotent mutate = %+v", again)
	}

	rec = do(t, h, "GET", "/metrics", "", nil)
	for _, frag := range []string{"cqa_db_mutations_total 2", "cqa_db_apply_duration_seconds_count 2"} {
		if !strings.Contains(rec.Body.String(), frag) {
			t.Errorf("metrics missing %q", frag)
		}
	}
}

func TestDBMutateErrors(t *testing.T) {
	h := newTestServer().Handler()
	if rec := do(t, h, "POST", "/v1/db/ghost/facts", `{"insert": ["R(a | 1)"]}`, nil); rec.Code != 404 {
		t.Errorf("unknown db: %d", rec.Code)
	}
	do(t, h, "PUT", "/v1/db/prod", "R(a | 1)\nT#c(k | 1)\n", nil)
	cases := []struct {
		body string
		want int
	}{
		{`{}`, 400},                                     // empty delta
		{`{"insert": ["R(a | "]}`, 400},                 // malformed fact
		{`{"delete": ["R(a | "]}`, 400},                 // malformed fact
		{`{"upsert": [["R(a | 1)", "R(b | 1)"]]}`, 400}, // key-mixing block
		{`{"upsert": [[]]}`, 400},                       // empty block
		{`{"insert": ["T#c(k | 2)"]}`, 400},             // mode-c violation
		{`{"insert": ["R(q, r, s | t)"]}`, 400},         // R is stored as R[2,1]
		{`not json`, 400},
	}
	for _, c := range cases {
		if rec := do(t, h, "POST", "/v1/db/prod/facts", c.body, nil); rec.Code != c.want {
			t.Errorf("%s: %d, want %d (%s)", c.body, rec.Code, c.want, rec.Body.String())
		}
	}
	// Nothing published along the way.
	var info snapshotInfo
	do(t, h, "GET", "/v1/db/prod", "", &info)
	if info.Version != 1 {
		t.Errorf("version = %d after rejected deltas", info.Version)
	}
}

// TestDBPutRejectsConflictingSignature: an upload giving one relation
// name two signatures is a 400 that publishes nothing — neither a new
// name nor a new version of an existing one — and a query whose
// signature disagrees with the stored data is a 400 on every
// evaluation endpoint and engine, never a 5xx.
func TestDBPutRejectsConflictingSignature(t *testing.T) {
	h := newTestServer().Handler()
	body := "R(a, b | c)\nR(a | b)\nR(a | d)\n"
	rec := do(t, h, "PUT", "/v1/db/w2", body, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("put with two signatures: %d %s", rec.Code, rec.Body.String())
	}
	for _, frag := range []string{"line 2", "R[3,2]", "R[2,1]"} {
		if !strings.Contains(rec.Body.String(), frag) {
			t.Errorf("put error %s does not mention %q", rec.Body.String(), frag)
		}
	}
	if rec := do(t, h, "GET", "/v1/db/w2", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("rejected upload published a snapshot: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, h, "PUT", "/v1/db/w2", "R(a, b | c)\nR(a, e | f)\n", nil); rec.Code != 200 {
		t.Fatalf("put: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, h, "PUT", "/v1/db/w2", body, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("re-put with two signatures: %d", rec.Code)
	}
	var info snapshotInfo
	do(t, h, "GET", "/v1/db/w2", "", &info)
	if info.Version != 1 || info.Facts != 2 {
		t.Errorf("rejected re-upload replaced the snapshot: %+v", info)
	}

	for _, c := range []struct{ path, body string }{
		{"/v1/certain", `{"query": "R(x | y)", "db": "w2"}`},
		{"/v1/certain", `{"query": "R(x | y)", "db": "w2", "engine": "fo"}`},
		{"/v1/certain", `{"query": "R(x | y)", "db": "w2", "engine": "ptime"}`},
		{"/v1/certain", `{"query": "R(x | y)", "db": "w2", "engine": "conp"}`},
		{"/v1/answers", `{"query": "R(x | y)", "free": ["x"], "db": "w2"}`},
		{"/v1/count", `{"query": "R(x | y)", "db": "w2"}`},
	} {
		rec := do(t, h, "POST", c.path, c.body, nil)
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s %s: undecodable reply %q", c.path, c.body, rec.Body.String())
		}
		if rec.Code != http.StatusBadRequest || er.Code != "signature_mismatch" ||
			!strings.Contains(er.Error, "stored signature [arity 3, key 2, mode i] differs from the query's [arity 2, key 1, mode i]") {
			t.Errorf("%s %s: %d %+v, want 400 signature_mismatch", c.path, c.body, rec.Code, er)
		}
	}
}

// TestDBPutRejectsNULConstant: block IDs join key constants with NUL,
// so R(a\x00, b | x) and R(a, \x00b | y) would share one block and
// break every later evaluation of the database. The upload is a 400
// that publishes nothing.
func TestDBPutRejectsNULConstant(t *testing.T) {
	h := newTestServer().Handler()
	rec := do(t, h, "PUT", "/v1/db/nul", "R(a\x00, b | x)\nR(a, \x00b | y)\n", nil)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "NUL") {
		t.Fatalf("put with a NUL constant: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, h, "GET", "/v1/db/nul", "", nil); rec.Code != http.StatusNotFound {
		t.Errorf("rejected upload published a snapshot: %d %s", rec.Code, rec.Body.String())
	}
}

func TestDBBodyTooLarge(t *testing.T) {
	h := newTestServer().Handler()
	big := strings.Repeat("x", maxBodyBytes+1)
	rec := do(t, h, "PUT", "/v1/db/prod", big, nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("put: %d", rec.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "body_too_large" {
		t.Errorf("put error envelope = %+v (%v)", er, err)
	}
	do(t, h, "PUT", "/v1/db/prod", "R(a | 1)\n", nil)
	rec = do(t, h, "POST", "/v1/db/prod/facts", `{"insert": ["`+big+`"]}`, nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("mutate: %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "body_too_large" {
		t.Errorf("mutate error envelope = %+v (%v)", er, err)
	}
	// The JSON evaluation endpoints share the decoder: an oversized
	// body is 413 too, not a 400 for the truncated JSON.
	rec = do(t, h, "POST", "/v1/certain", `{"query": "R(x | y)", "facts": "`+big+`"}`, nil)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("certain: %d %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Code != "body_too_large" {
		t.Errorf("certain error envelope = %+v (%v)", er, err)
	}
}
