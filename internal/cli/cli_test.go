package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runClassify(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := RunClassify(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestClassifyBasic(t *testing.T) {
	out, _, code := runClassify(t, "R(x | y), S(y | z)")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, frag := range []string{"in FO", "attack graph", "R -> S (weak)", "Cforest"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestClassifyFlags(t *testing.T) {
	out, _, code := runClassify(t, "-explain", "-plus", "-dot", "-markov", "R0(x | y), S0(y | x)")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, frag := range []string{
		"P but L-hard", "weak 2-cycle", "F^{+,q}", "digraph attack",
		"Markov graph", "premier Markov cycle",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestClassifyCatalog(t *testing.T) {
	out, _, code := runClassify(t, "-catalog")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "kw15-q0") || !strings.Contains(out, "coNP-complete") {
		t.Errorf("catalog output truncated:\n%s", out)
	}
}

func TestClassifyErrors(t *testing.T) {
	if _, _, code := runClassify(t); code != 2 {
		t.Error("missing query should exit 2")
	}
	if _, errb, code := runClassify(t, "R(x | y), R(y | z)"); code != 1 || !strings.Contains(errb, "self-join") {
		t.Errorf("self-join: code=%d err=%q", code, errb)
	}
}

func TestCertainFileAndStdin(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "facts.txt")
	if err := os.WriteFile(path, []byte("R(a | b)\nS(b | c)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := RunCertain([]string{"-q", "R(x | y), S(y | z)", "-db", path}, nil, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "certain: true") {
		t.Errorf("output:\n%s", out.String())
	}

	out.Reset()
	stdin := strings.NewReader("R(a | b)\nR(a | dead)\nS(b | c)\n")
	code = RunCertain([]string{"-q", "R(x | y), S(y | z)", "-db", "-", "-repair"}, stdin, &out, &errb)
	if code != 1 {
		t.Fatalf("not-certain should exit 1, got %d", code)
	}
	if !strings.Contains(out.String(), "falsifying repair:") {
		t.Errorf("missing repair:\n%s", out.String())
	}
}

func TestCertainStagesFlag(t *testing.T) {
	var out, errb bytes.Buffer
	stdin := strings.NewReader("R(a | b)\nS(b | c)\n")
	code := RunCertain([]string{"-q", "R(x | y), S(y | z)", "-db", "-", "-stages"}, stdin, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "stages (total") || !strings.Contains(got, "eliminator") {
		t.Errorf("missing stage breakdown:\n%s", got)
	}

	// A coNP query surfaces the purify/match/conp stages. (This instance
	// is falsifiable — repair {R(a|b), S(d|c)} kills the join — so the
	// not-certain exit code 1 is expected.)
	out.Reset()
	stdin = strings.NewReader("R(a | b)\nR(a | c)\nS(d | b)\nS(d | c)\n")
	code = RunCertain([]string{"-q", "R(x | y), S(u | y)", "-db", "-", "-stages"}, stdin, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	got = out.String()
	for _, stage := range []string{"purify", "conp"} {
		if !strings.Contains(got, stage) {
			t.Errorf("coNP breakdown missing %q:\n%s", stage, got)
		}
	}

	// Without the flag: no breakdown.
	out.Reset()
	stdin = strings.NewReader("R(a | b)\nS(b | c)\n")
	RunCertain([]string{"-q", "R(x | y), S(y | z)", "-db", "-"}, stdin, &out, &errb)
	if strings.Contains(out.String(), "stages (total") {
		t.Errorf("breakdown printed without -stages:\n%s", out.String())
	}
}

func TestCertainAnswersFlag(t *testing.T) {
	const facts = `
		Product(p1 | acme)
		Product(p2 | globex)
		Product(p2 | initech)
		Product(p3 | acme)
		Product(p 4 | acme)
		Supplier(acme | DE)
		Supplier(globex | DE)
		Supplier(initech | US)
	`
	for _, tc := range []struct {
		free, want string
	}{
		{"pid", "{pid -> p 4}\n{pid -> p1}\n{pid -> p3}\n"},
		{"sid,pid", "{pid -> p 4, sid -> acme}\n{pid -> p1, sid -> acme}\n{pid -> p3, sid -> acme}\n"},
	} {
		var out, errb bytes.Buffer
		code := RunCertain([]string{
			"-q", "Product(pid | sid), Supplier(sid | 'DE')",
			"-db", "-", "-answers", tc.free,
		}, strings.NewReader(facts), &out, &errb)
		if code != 0 {
			t.Fatalf("-answers %s: exit %d: %s", tc.free, code, errb.String())
		}
		if out.String() != tc.want {
			t.Errorf("-answers %s: stdout\n%s\nwant\n%s", tc.free, out.String(), tc.want)
		}
		if errb.String() != "3 certain answer(s)\n" {
			t.Errorf("-answers %s: stderr %q", tc.free, errb.String())
		}
	}
}

func TestCertainEngineAndErrors(t *testing.T) {
	var out, errb bytes.Buffer
	stdin := strings.NewReader("R(a | b)\n")
	code := RunCertain([]string{"-q", "R(x | y)", "-db", "-", "-engine", "conp"}, stdin, &out, &errb)
	if code != 0 || !strings.Contains(out.String(), "engine:  conp") {
		t.Errorf("code=%d out=%s", code, out.String())
	}
	if code := RunCertain([]string{"-q", "R(x | y)"}, nil, &out, &errb); code != 2 {
		t.Error("missing -db should exit 2")
	}
	for _, engine := range []string{"zzz", "naive"} {
		if code := RunCertain([]string{"-q", "R(x | y)", "-db", "-", "-engine", engine}, strings.NewReader(""), &out, &errb); code != 2 {
			t.Errorf("engine %s should exit 2", engine)
		}
	}
	// Mode-c violation in the input.
	stdin = strings.NewReader("T#c(a | 1)\nT#c(a | 2)\n")
	if code := RunCertain([]string{"-q", "T#c(x | y)", "-db", "-"}, stdin, &out, &errb); code != 2 {
		t.Error("mode-c violation should exit 2")
	}
}

func TestRewriteLogicAndSQL(t *testing.T) {
	var out, errb bytes.Buffer
	code := RunRewrite([]string{"R(x | y), S(y | z)"}, &out, &errb)
	if code != 0 || !strings.Contains(out.String(), "∃x") {
		t.Errorf("logic rewrite: code=%d out=%s", code, out.String())
	}
	out.Reset()
	code = RunRewrite([]string{"-sql", "R(x | y), S(y | z)"}, &out, &errb)
	if code != 0 || !strings.Contains(out.String(), "NOT EXISTS") {
		t.Errorf("sql rewrite: code=%d out=%s", code, out.String())
	}
	out.Reset()
	code = RunRewrite([]string{"R0(x | y), S0(y | x)"}, &out, &errb)
	if code != 1 {
		t.Errorf("cyclic query should exit 1, got %d", code)
	}
	out.Reset()
	code = RunRewrite([]string{"-catalog"}, &out, &errb)
	if code != 0 || !strings.Contains(out.String(), "kw15-example5") {
		t.Errorf("catalog rewrite: code=%d", code)
	}
}

func TestBenchListAndQuick(t *testing.T) {
	var out, errb bytes.Buffer
	code := RunBench([]string{"-list"}, &out, &errb)
	if code != 0 || !strings.Contains(out.String(), "E1") || !strings.Contains(out.String(), "E12") {
		t.Errorf("list: code=%d out=%s", code, out.String())
	}
	out.Reset()
	code = RunBench([]string{"-quick", "-exp", "E1"}, &out, &errb)
	if code != 0 || !strings.Contains(out.String(), "R^{+,q}") {
		t.Errorf("E1 quick: code=%d", code)
	}
	if code := RunBench([]string{"-exp", "E99"}, &out, &errb); code != 1 {
		t.Error("unknown experiment should exit 1")
	}
}

func TestCertainCountPossibleFraction(t *testing.T) {
	var out, errb bytes.Buffer
	stdin := strings.NewReader("R(a | b)\nR(a | dead)\nS(b | c)\n")
	code := RunCertain([]string{
		"-q", "R(x | y), S(y | z)", "-db", "-",
		"-possible", "-count",
	}, stdin, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	for _, frag := range []string{"possible: true", "satisfying repairs: 1 of 2"} {
		if !strings.Contains(o, frag) {
			t.Errorf("output missing %q:\n%s", frag, o)
		}
	}
	// The satisfying fraction is -count's to report; there is no second
	// sampler behind a -fraction flag: passing it is a usage error, and
	// -h does not list it.
	errb.Reset()
	if code := RunCertain([]string{"-q", "R(x | y)", "-db", "-", "-fraction", "200"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("-fraction should exit 2, got %d", code)
	}
	errb.Reset()
	RunCertain([]string{"-h"}, strings.NewReader(""), &out, &errb)
	if !strings.Contains(errb.String(), "\n  -count") {
		t.Fatalf("unexpected -h layout:\n%s", errb.String())
	}
	if strings.Contains(errb.String(), "\n  -fraction ") {
		t.Errorf("cqa-certain -h still lists -fraction:\n%s", errb.String())
	}
}

func TestCertainCountDegrades(t *testing.T) {
	// Hub gadget: one constraint component with assignment space 2^65,
	// past the exact bound, so -count reports an anytime estimate.
	var facts strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&facts, "R(x%d | hub)\nR(x%d | dead%d)\n", i, i, i)
	}
	facts.WriteString("S(hub | z0)\nS(hub | z1)\n")
	var out, errb bytes.Buffer
	code := RunCertain([]string{
		"-q", "R(x | y), S(y | z)", "-db", "-", "-count",
	}, strings.NewReader(facts.String()), &out, &errb)
	if code != 0 && code != 1 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	for _, frag := range []string{"satisfying repairs: ~", "components sampled"} {
		if !strings.Contains(o, frag) {
			t.Errorf("output missing %q:\n%s", frag, o)
		}
	}
}

func TestCertainTraceFlag(t *testing.T) {
	var out, errb bytes.Buffer
	stdin := strings.NewReader("R0(a | 1)\nR0(a | 2)\nS0(1 | a)\nS0(2 | a)\n")
	code := RunCertain([]string{
		"-q", "R0(x | y), S0(y | x)", "-db", "-", "-trace",
	}, stdin, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	o := out.String()
	for _, frag := range []string{"pipeline trace", "dissolve premier Markov cycle", "Lemma 9", "certain: true"} {
		if !strings.Contains(o, frag) {
			t.Errorf("trace missing %q:\n%s", frag, o)
		}
	}
	// The trace path must refuse coNP queries.
	out.Reset()
	stdin = strings.NewReader("R(a | b)\nS(u | b)\n")
	if code := RunCertain([]string{"-q", "R(x | y), S(u | y)", "-db", "-", "-trace"}, stdin, &out, &errb); code != 2 {
		t.Errorf("trace on coNP query should exit 2, got %d", code)
	}
}

func TestClassifyJSON(t *testing.T) {
	out, _, code := runClassify(t, "-json", "R(x | y), S(u | y)")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var decoded struct {
		Class          string `json:"class"`
		HasStrongCycle bool   `json:"hasStrongCycle"`
		Attacks        []struct {
			From string `json:"from"`
			Weak bool   `json:"weak"`
		} `json:"attacks"`
	}
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if decoded.Class != "coNP-complete" || !decoded.HasStrongCycle || len(decoded.Attacks) != 2 {
		t.Errorf("decoded = %+v", decoded)
	}
	for _, a := range decoded.Attacks {
		if a.Weak {
			t.Errorf("attacks should be strong: %+v", a)
		}
	}
}
