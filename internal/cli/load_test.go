package cli

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

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

func TestLoadFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := RunLoad([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
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
