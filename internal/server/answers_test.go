package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"cqa/internal/query"
)

// TestAnswerTableMatchesMapEncoding: an answer table encodes to the
// bytes encoding/json writes for the same answers as maps, for
// constants that need every kind of escape — quotes, backslashes,
// control bytes, HTML metacharacters, U+2028, invalid UTF-8 — and for
// random byte strings.
func TestAnswerTableMatchesMapEncoding(t *testing.T) {
	consts := []string{"", "a b", `"q"`, `back\slash`, "<a&b>", "é日本", "tab\there", "\x00\x01\x1f\x7f",
		"\b\f\n\r", "line\u2028sep\u2029", "bad\xffutf8\xc3", "\xe2\x80", "emoji 🙂", "\uFFFD"}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		consts = append(consts, string(b))
	}
	free := []query.Var{"z", "a\"b", "m"}
	var tab query.Answers
	var maps []map[string]string
	for i := 0; i+len(free) <= len(consts); i++ {
		var row []query.Const
		tab, row = tab.Add(len(free))
		m := map[string]string{}
		for j, v := range free {
			row[j] = query.Const(consts[i+j])
			m[string(v)] = consts[i+j]
		}
		maps = append(maps, m)
	}
	for _, n := range []int{0, 1, len(tab)} {
		var got, want bytes.Buffer
		for buf, v := range map[*bytes.Buffer]any{&got: answerTable{free: free, rows: tab[:n]}, &want: maps[:n]} {
			enc := json.NewEncoder(buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d rows: table encodes to\n%s\nmaps to\n%s", n, got.Bytes(), want.Bytes())
		}
	}
}
