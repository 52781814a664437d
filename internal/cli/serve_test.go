package cli

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"cqa/internal/server"
)

// TestClassifyNormalizationRegression: textual variants of one query —
// extra whitespace, different atom order — must produce byte-identical
// CLI output, because both normalize through the same helper the plan
// cache keys on.
func TestClassifyNormalizationRegression(t *testing.T) {
	canonical, _, code := runClassify(t, "R(x | y), S(y | z)")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, variant := range []string{
		"  R(x | y), S(y | z)  ",
		"R( x |y ),S(y| z)",
		"S(y | z), R(x | y)",
	} {
		out, _, code := runClassify(t, variant)
		if code != 0 {
			t.Fatalf("%q: exit %d", variant, code)
		}
		if out != canonical {
			t.Errorf("output for %q differs from canonical:\n--- got ---\n%s--- want ---\n%s", variant, out, canonical)
		}
	}
}

func TestCertainNormalizationRegression(t *testing.T) {
	facts := "R(a | b)\nS(b | c)\n"
	run := func(q string) string {
		var out, errb bytes.Buffer
		code := RunCertain([]string{"-q", q, "-db", "-"}, strings.NewReader(facts), &out, &errb)
		if code != 0 {
			t.Fatalf("%q: exit %d: %s", q, code, errb.String())
		}
		return out.String()
	}
	canonical := run("R(x | y), S(y | z)")
	if got := run(" S(y | z) ,R(x | y) "); got != canonical {
		t.Errorf("output differs:\n--- got ---\n%s--- want ---\n%s", got, canonical)
	}
}

func TestServeFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := RunServe([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
	if code := RunLoad([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
	// cqa-serve has no -shards or -hedge flag (scatter-gather is the
	// -cluster router's): passing one is a usage error, -h lists neither.
	for _, flag := range []string{"-shards=4", "-hedge=2ms"} {
		if code := RunServe([]string{flag}, &out, &errb); code != 2 {
			t.Errorf("%s should exit 2, got %d", flag, code)
		}
	}
	errb.Reset()
	RunServe([]string{"-h"}, &out, &errb)
	if !strings.Contains(errb.String(), "\n  -cluster-hedge ") {
		t.Fatalf("unexpected -h layout:\n%s", errb.String())
	}
	for _, gone := range []string{"-shards", "-hedge"} {
		if strings.Contains(errb.String(), "\n  "+gone+" ") {
			t.Errorf("cqa-serve -h still lists %s:\n%s", gone, errb.String())
		}
	}
}

func TestLoadUnreachableServer(t *testing.T) {
	var out, errb bytes.Buffer
	code := RunLoad([]string{"-url", "http://127.0.0.1:1", "-duration", "100ms"}, &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "cannot reach") {
		t.Errorf("code=%d err=%q", code, errb.String())
	}
}

// TestLoadAgainstTestServer drives the full load-generator path — db
// uploads, paced replay, summary — against an in-process server.
func TestLoadAgainstTestServer(t *testing.T) {
	srv := server.New(server.Config{CacheSize: 256, MaxWorkers: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out, errb bytes.Buffer
	code := RunLoad([]string{
		"-url", ts.URL, "-qps", "300", "-duration", "400ms", "-concurrency", "8",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	for _, frag := range []string{"request shapes", "req/s achieved", "endpoint", "certain", "cqa_plancache_hits_total"} {
		if !strings.Contains(o, frag) {
			t.Errorf("summary missing %q:\n%s", frag, o)
		}
	}
	if srv.Store().Len() == 0 {
		t.Error("load generator uploaded no databases")
	}
}

func TestLoadProbeMode(t *testing.T) {
	srv := server.New(server.Config{CacheSize: 256, MaxWorkers: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out, errb bytes.Buffer
	code := RunLoad([]string{"-url", ts.URL, "-probe"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	for _, frag := range []string{"plan-cache probe", "cold (compile)", "warm (cached)", "speedup"} {
		if !strings.Contains(o, frag) {
			t.Errorf("probe output missing %q:\n%s", frag, o)
		}
	}
}

// TestLoadWriteMix replays a mixed read/write workload: the summary must
// report the mutate endpoint alongside certain, and the server must have
// published post-upload versions for at least one database.
func TestLoadWriteMix(t *testing.T) {
	srv := server.New(server.Config{CacheSize: 256, MaxWorkers: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out, errb bytes.Buffer
	code := RunLoad([]string{
		"-url", ts.URL, "-qps", "300", "-duration", "500ms", "-concurrency", "8", "-write-mix", "0.5",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	for _, frag := range []string{"mutate", "cqa_db_mutations_total"} {
		if !strings.Contains(o, frag) {
			t.Errorf("write-mix summary missing %q:\n%s", frag, o)
		}
	}
	mutated := 0
	for _, snap := range srv.Store().List() {
		if snap.Version > 1 {
			mutated++
		}
	}
	if mutated == 0 {
		t.Error("write mix published no new versions")
	}
}

// TestServeWALFlag boots the serve loop with -wal twice over the same
// directory: the first run journals an upload and a delta, the second
// must replay both and restore the version chain.
func TestServeWALFlag(t *testing.T) {
	dir := t.TempDir()
	run := func(work func(base string)) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base := "http://" + ln.Addr().String()
		ln.Close()
		var out, errb bytes.Buffer
		done := make(chan int, 1)
		go func() {
			done <- RunServe([]string{"-addr", strings.TrimPrefix(base, "http://"), "-quiet", "-wal", dir}, &out, &errb)
		}()
		client := &http.Client{Timeout: time.Second}
		deadline := time.Now().Add(5 * time.Second)
		for {
			if resp, err := client.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server never came up: %s", errb.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
		work(base)
		p, _ := os.FindProcess(os.Getpid())
		p.Signal(syscall.SIGTERM)
		if code := <-done; code != 0 {
			t.Fatalf("serve exit %d: %s", code, errb.String())
		}
		return out.String()
	}

	client := &http.Client{Timeout: time.Second}
	run(func(base string) {
		req, _ := http.NewRequest("PUT", base+"/v1/db/prod", strings.NewReader("R(a | 1)\n"))
		if resp, err := client.Do(req); err != nil || resp.StatusCode != 200 {
			t.Fatalf("put: %v %v", err, resp)
		}
		resp, err := client.Post(base+"/v1/db/prod/facts", "application/json",
			strings.NewReader(`{"insert": ["R(b | 2)"]}`))
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("mutate: %v %v", err, resp)
		}
	})

	out := run(func(base string) {
		resp, err := client.Get(base + "/v1/db/prod")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info struct {
			Version uint64 `json:"version"`
			Facts   int    `json:"facts"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		if info.Version != 2 || info.Facts != 2 {
			t.Errorf("restored db = %+v, want version 2 with 2 facts", info)
		}
	})
	if !strings.Contains(out, "replayed 2 records") {
		t.Errorf("boot banner missing replay count:\n%s", out)
	}
}
