package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// answerFronts returns two handlers over the same database: a flat
// server evaluating locally, and a routing front whose answers come
// from three shard nodes over real HTTP sockets.
func answerFronts(t *testing.T, facts string) (flat, routed http.Handler) {
	t.Helper()
	local := newTestServer()
	if _, err := local.Store().PutFacts("corpus", facts); err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 3; i++ {
		node := New(Config{CacheSize: 64, MaxWorkers: 8, ShardNode: true})
		if _, err := node.Store().PutFacts("corpus", facts); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(node.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	front := New(Config{CacheSize: 64, MaxWorkers: 8, ClusterNodes: urls, ClusterShards: 5})
	if _, err := front.Store().PutFacts("corpus", facts); err != nil {
		t.Fatal(err)
	}
	return local.Handler(), front.Handler()
}

// goldenFacts holds constants the fact parser admits and JSON must
// escape: an inner space, HTML metacharacters, a quote, a backslash and
// non-ASCII text. The (k, 2) block is inconsistent, so it is no answer.
const goldenFacts = `R(a b, <a&b> | m1)
S(m1 | z1)
R(c, "q" | m2)
S(m2 | z2)
R(é, back\slash | m3)
S(m3 | z3)
R(日本, 1 | m4)
S(m4 | z4)
R(k, 2 | m5)
R(k, 2 | m6)
S(m5 | z5)
`

// TestAnswersGoldenBody pins the /v1/answers body byte for byte on the
// flat and the routed path, for a swept request (both key variables
// free, listed out of sorted order) and a candidate-check request: two
// space indentation, keys in sorted order, rows in the one answer
// order, and the count.
func TestAnswersGoldenBody(t *testing.T) {
	const q = "R(x, w | y), S(y | z)"
	cases := []struct {
		free string
		want string
	}{
		{`["x", "w"]`, `{
  "query": "R(x, w | y), S(y | z)",
  "free": [
    "x",
    "w"
  ],
  "answers": [
    {
      "w": "\"q\"",
      "x": "c"
    },
    {
      "w": "1",
      "x": "日本"
    },
    {
      "w": "\u003ca\u0026b\u003e",
      "x": "a b"
    },
    {
      "w": "back\\slash",
      "x": "é"
    }
  ],
  "count": 4,
  "class": "FO",
  "cached": false,
  "db": {
    "name": "corpus",
    "version": 1
  }
}
`},
		{`["z", "x"]`, `{
  "query": "R(x, w | y), S(y | z)",
  "free": [
    "z",
    "x"
  ],
  "answers": [
    {
      "x": "a b",
      "z": "z1"
    },
    {
      "x": "c",
      "z": "z2"
    },
    {
      "x": "é",
      "z": "z3"
    },
    {
      "x": "日本",
      "z": "z4"
    }
  ],
  "count": 4,
  "class": "FO",
  "cached": true,
  "db": {
    "name": "corpus",
    "version": 1
  }
}
`},
	}
	flat, routed := answerFronts(t, goldenFacts)
	for name, h := range map[string]http.Handler{"flat": flat, "routed": routed} {
		for _, tc := range cases {
			body := fmt.Sprintf(`{"query": %q, "db": "corpus", "free": %s}`, q, tc.free)
			rec := do(t, h, "POST", "/v1/answers", body, nil)
			if rec.Code != 200 {
				t.Fatalf("%s %s: %d %s", name, tc.free, rec.Code, rec.Body.String())
			}
			if got := rec.Body.String(); got != tc.want {
				t.Errorf("%s free %s: body\n%s\nwant\n%s", name, tc.free, got, tc.want)
			}
		}
	}
}

// TestAnswersGoldenPrefixOrder pins the one place the answer order
// departs from comparing "x=a,y=b" binding keys as strings: a constant
// that is a proper prefix of another in a non-last sorted column sorts
// first, even when the longer one continues with a byte below ','.
func TestAnswersGoldenPrefixOrder(t *testing.T) {
	facts := "R(1, a | m)\nS(m | z)\nR(2, a b | m)\n"
	const want = `{
  "query": "R(x, w | y), S(y | z)",
  "free": [
    "x",
    "w"
  ],
  "answers": [
    {
      "w": "a",
      "x": "1"
    },
    {
      "w": "a b",
      "x": "2"
    }
  ],
  "count": 2,
  "class": "FO",
  "cached": false,
  "db": {
    "name": "corpus",
    "version": 1
  }
}
`
	flat, routed := answerFronts(t, facts)
	for name, h := range map[string]http.Handler{"flat": flat, "routed": routed} {
		rec := do(t, h, "POST", "/v1/answers", `{"query": "R(x, w | y), S(y | z)", "db": "corpus", "free": ["x", "w"]}`, nil)
		if got := rec.Body.String(); rec.Code != 200 || got != want {
			t.Errorf("%s: %d body\n%s\nwant\n%s", name, rec.Code, got, want)
		}
	}
}

// TestAnswersOrderSameOnEveryDeployment: a flat server and a routing
// front answer the same request with byte-identical bodies, for a
// candidate-check request (whose first-seen candidate order differs
// from the answer order) and a swept one.
func TestAnswersOrderSameOnEveryDeployment(t *testing.T) {
	flat, routed := answerFronts(t, "R(k1 | m1)\nS(m1 | zb)\nR(k2 | m2)\nS(m2 | za)\n")
	for _, free := range []string{`["z"]`, `["x"]`} {
		body := fmt.Sprintf(`{"query": "R(x | y), S(y | z)", "db": "corpus", "free": %s}`, free)
		f := do(t, flat, "POST", "/v1/answers", body, nil)
		r := do(t, routed, "POST", "/v1/answers", body, nil)
		if f.Code != 200 || r.Code != 200 {
			t.Fatalf("free %s: flat %d, routed %d", free, f.Code, r.Code)
		}
		if f.Body.String() != r.Body.String() {
			t.Errorf("free %s: flat body\n%s\nrouted body\n%s", free, f.Body.String(), r.Body.String())
		}
	}
}
