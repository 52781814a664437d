package main

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// fingerprint hashes everything the server receives from a workload: the
// uploaded databases, every request body, and the request streams.
func fingerprint(w *traffic) [32]byte {
	h := sha256.New()
	put := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, u := range w.uploads {
		put([]byte(u.name))
		put([]byte(u.text))
	}
	for _, r := range w.pool {
		put([]byte(r.path))
		put(r.body)
	}
	for _, r := range w.writes {
		put([]byte(r.path))
		put(r.body)
	}
	for _, i := range w.reads {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(i))
		h.Write(n[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"serve-fo", "serve-hard", "compile-churn", "write-read"} {
		a, err := generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7)
		c, _ := generate(name, 8)
		if fingerprint(a) != fingerprint(b) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if fingerprint(a) == fingerprint(c) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := generate("nope", 1); err == nil {
		t.Fatal("an unknown workload name must be an error")
	}
}

// Writes hit distinct blocks, so the write-read model must reach the same
// state whatever order concurrent writes commit in, and the writes must
// change what the reads see.
func TestWriteReadModelGrouping(t *testing.T) {
	w, _ := generate("write-read", 3)
	m := w.model
	one, each := m.start(), m.start()
	for _, wr := range m.writes[:300] {
		each.apply(wr)
	}
	for i := len(m.writes[:300]) - 1; i >= 0; i-- {
		one.apply(m.writes[i])
	}
	if one.dig != each.dig {
		t.Fatalf("write order changed the model state: %v vs %v", one.dig, each.dig)
	}
	if each.dig == m.start().dig {
		t.Fatal("300 writes left every read answer unchanged")
	}
}
