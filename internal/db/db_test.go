package db

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cqa/internal/query"
	"cqa/internal/schema"
)

var (
	relR = schema.NewRelation("R", 2, 1)
	relS = schema.NewRelation("S", 3, 2)
)

func TestFactBasics(t *testing.T) {
	f := NewFact(relR, "a", "b")
	g := NewFact(relR, "a", "c")
	h := NewFact(relR, "x", "b")
	if !f.KeyEqual(g) || f.KeyEqual(h) {
		t.Error("KeyEqual wrong")
	}
	if f.Equal(g) || !f.Equal(NewFact(relR, "a", "b")) {
		t.Error("Equal wrong")
	}
	if f.BlockID() != g.BlockID() || f.BlockID() == h.BlockID() {
		t.Error("BlockID wrong")
	}
	if f.String() != "R(a | b)" {
		t.Errorf("String = %q", f.String())
	}
	s := NewFact(relS, "a", "b", "c")
	if s.String() != "S(a, b | c)" {
		t.Errorf("String = %q", s.String())
	}
	if len(s.Key()) != 2 || len(s.NonKey()) != 1 {
		t.Error("key split wrong")
	}
}

func TestAddDedup(t *testing.T) {
	d := New()
	if !d.Add(NewFact(relR, "a", "b")) {
		t.Error("first add should be new")
	}
	if d.Add(NewFact(relR, "a", "b")) {
		t.Error("duplicate add should report false")
	}
	if d.Len() != 1 {
		t.Error("dedup failed")
	}
}

func TestBlocks(t *testing.T) {
	d := FromFacts(
		NewFact(relR, "a", "1"),
		NewFact(relR, "a", "2"),
		NewFact(relR, "b", "1"),
	)
	blocks := d.Blocks()
	if len(blocks) != 2 {
		t.Fatalf("%d blocks", len(blocks))
	}
	if len(blocks[0].Facts) != 2 || len(blocks[1].Facts) != 1 {
		t.Errorf("block sizes wrong: %v", blocks)
	}
	if d.Consistent() {
		t.Error("db with a 2-fact block is inconsistent")
	}
	if d.NumRepairs() != 2 {
		t.Errorf("NumRepairs = %v", d.NumRepairs())
	}
	bo := d.BlockOf(NewFact(relR, "a", "zzz"))
	if len(bo.Facts) != 2 {
		t.Errorf("BlockOf by key should find the block, got %v", bo)
	}
}

func TestConsistentFor(t *testing.T) {
	relC := schema.NewConsistent("C", 2, 1)
	d := FromFacts(NewFact(relC, "a", "1"))
	if !d.ConsistentFor() {
		t.Error("singleton mode-c block is fine")
	}
	d.Add(NewFact(relC, "a", "2"))
	if d.ConsistentFor() {
		t.Error("mode-c violation must be detected")
	}
}

func TestRepairsEnumeration(t *testing.T) {
	d := FromFacts(
		NewFact(relR, "a", "1"),
		NewFact(relR, "a", "2"),
		NewFact(relR, "b", "1"),
	)
	count := 0
	seen := map[string]bool{}
	d.Repairs(func(facts []Fact) bool {
		count++
		if !ConsistentSet(facts) {
			t.Fatalf("repair %v inconsistent", facts)
		}
		key := ""
		for _, f := range facts {
			key += f.ID() + ";"
		}
		seen[key] = true
		return true
	})
	if count != 2 || len(seen) != 2 {
		t.Errorf("count=%d distinct=%d", count, len(seen))
	}
	// Early stop.
	calls := 0
	d.Repairs(func([]Fact) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early stop failed: %d calls", calls)
	}
}

func TestActiveDomainAndClone(t *testing.T) {
	d := FromFacts(NewFact(relR, "b", "a"))
	adom := d.ActiveDomain()
	if len(adom) != 2 || adom[0] != "a" || adom[1] != "b" {
		t.Errorf("adom = %v", adom)
	}
	c := d.Clone()
	c.Add(NewFact(relR, "x", "y"))
	if d.Len() != 1 || c.Len() != 2 {
		t.Error("clone not independent")
	}
}

func TestFilterWithoutRestrict(t *testing.T) {
	d := FromFacts(
		NewFact(relR, "a", "1"),
		NewFact(relS, "a", "b", "c"),
	)
	if got := d.Filter(func(f Fact) bool { return f.Rel.Name != "R" }); got.Len() != 1 || got.Facts()[0].Rel.Name != "S" {
		t.Errorf("filter: %v", got)
	}
}

func TestParseFactsBasics(t *testing.T) {
	d, err := ParseFacts(nil, `
		# comment
		R(a | b)

		S(x, y | z)
		T#c(k | v)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("len = %d", d.Len())
	}
	s := d.FactsOf("S")[0]
	if s.Rel.KeyLen != 2 {
		t.Errorf("S key length %d", s.Rel.KeyLen)
	}
	tt := d.FactsOf("T")[0]
	if tt.Rel.Mode != schema.ModeC {
		t.Errorf("T should be mode c")
	}

	// A relation name has one signature: a later line that infers a
	// different arity, key length, or mode is rejected by line number,
	// and the error names both signatures.
	for _, c := range []struct{ text, first, second string }{
		{"R(a, b | c)\nR(a | b)\nR(a | d)", "R[3,2]", "R[2,1]"},
		{"R(a | b)\n\nR(q, r, s | t)", "R[2,1]", "R[4,3]"},
		{"R(a | b)\nR(a, b |)", "R[2,1]", "R[2,2]"},
		{"R(a | b)\nR#c(c | d)", "R[2,1]", "R#c[2,1]"},
	} {
		_, err := ParseFacts(nil, c.text)
		if err == nil {
			t.Errorf("ParseFacts(%q) accepted two signatures for R", c.text)
			continue
		}
		for _, frag := range []string{"line ", c.first, c.second} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("ParseFacts(%q) error %q lacks %q", c.text, err, frag)
			}
		}
	}
	if _, err := ParseFacts(nil, "R(a | b)\nR(q, r, s | t)"); err == nil || !strings.HasPrefix(err.Error(), "line 2:") {
		t.Errorf("conflict not attributed to line 2: %v", err)
	}
}

func TestParseFactsWithSchema(t *testing.T) {
	s := schema.NewSchema()
	s.MustAdd(schema.NewRelation("R", 3, 2))
	d, err := ParseFacts(s, "R(a, b, c)")
	if err != nil {
		t.Fatal(err)
	}
	if d.Facts()[0].Rel.KeyLen != 2 {
		t.Error("schema signature not applied")
	}
	if _, err := ParseFacts(s, "R(a, b)"); err == nil {
		t.Error("arity mismatch not detected")
	}
	if _, err := ParseFacts(s, "R(a | b, c)"); err == nil {
		t.Error("key-length mismatch not detected")
	}
}

func TestParseFactErrors(t *testing.T) {
	for _, bad := range []string{"R(a", "Ra)", "R()", "R(a,,b)", "R(a\x00 | b)"} {
		if _, err := ParseFact(nil, bad); err == nil {
			t.Errorf("ParseFact(%q) should fail", bad)
		}
	}
	// Block IDs join key constants with NUL, so these two facts would
	// share one block although their keys differ.
	if _, err := ParseFacts(nil, "R(a\x00, b | x)\nR(a, \x00b | y)"); err == nil || !strings.HasPrefix(err.Error(), "line 1:") {
		t.Errorf("NUL constant not rejected on line 1: %v", err)
	}
}

func TestGroundQueryAndFactFromAtom(t *testing.T) {
	q := query.MustParse("R(x | y)")
	v := query.Valuation{"x": "a", "y": "b"}
	facts, err := GroundQuery(q, v)
	if err != nil || len(facts) != 1 || facts[0].String() != "R(a | b)" {
		t.Fatalf("ground: %v %v", facts, err)
	}
	if _, err := GroundQuery(q, query.Valuation{"x": "a"}); err == nil {
		t.Error("unbound variable not detected")
	}
}

// Property: NumRepairs equals the number of repairs enumerated.
func TestNumRepairsMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New()
		for i := 0; i < rng.Intn(6); i++ {
			key := query.Const(strings.Repeat("k", 1+rng.Intn(3)))
			d.Add(NewFact(relR, key, query.Const([]string{"1", "2", "3"}[rng.Intn(3)])))
		}
		want := d.NumRepairs()
		got := 0
		d.Repairs(func([]Fact) bool { got++; return true })
		return float64(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBlockByKey(t *testing.T) {
	d := FromFacts(
		NewFact(relR, "a", "1"),
		NewFact(relR, "a", "2"),
		NewFact(relR, "b", "1"),
		NewFact(relS, "a", "b", "c"),
	)
	b, ok := d.BlockByKey("R", []query.Const{"a"})
	if !ok || len(b.Facts) != 2 {
		t.Fatalf("BlockByKey(R, a) = %v, %v", b, ok)
	}
	b, ok = d.BlockByKey("S", []query.Const{"a", "b"})
	if !ok || len(b.Facts) != 1 {
		t.Fatalf("BlockByKey(S, (a,b)) = %v, %v", b, ok)
	}
	if _, ok := d.BlockByKey("R", []query.Const{"zzz"}); ok {
		t.Error("missing key reported found")
	}
	if _, ok := d.BlockByKey("Nope", []query.Const{"a"}); ok {
		t.Error("missing relation reported found")
	}
	// BlockByKey agrees with BlockOf for every block of the instance.
	for _, blk := range d.Blocks() {
		f := blk.Facts[0]
		got, ok := d.BlockByKey(f.Rel.Name, f.Key())
		if !ok || len(got.Facts) != len(blk.Facts) {
			t.Errorf("BlockByKey(%s, %v) = %v, %v; want %v", f.Rel.Name, f.Key(), got, ok, blk)
		}
	}
}

// TestBlockByKeyRowPathAllocs: a probe of a database with no columnar
// view, hit or miss, allocates nothing.
func TestBlockByKeyRowPathAllocs(t *testing.T) {
	d := FromFacts(
		NewFact(relR, "a", "1"),
		NewFact(relS, "a", "b", "c"),
	)
	if d.colMemo.Load() != nil {
		t.Fatal("the database has a columnar view; the row path is not probed")
	}
	hit, miss := []query.Const{"a", "b"}, []query.Const{"zzz"}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := d.BlockByKey("S", hit); !ok {
			t.Fatal("BlockByKey(S, (a,b)) missed")
		}
		if _, ok := d.BlockByKey("R", miss); ok {
			t.Fatal("BlockByKey(R, zzz) hit")
		}
	})
	if allocs != 0 {
		t.Errorf("row-path BlockByKey: %v allocs per probe pair, want 0", allocs)
	}
}

// TestIndexInvalidationOnAdd: key probes, the active domain and the
// block lists see every mutation, so readers never see stale state.
func TestIndexInvalidationOnAdd(t *testing.T) {
	d := FromFacts(NewFact(relR, "a", "1"))
	if _, ok := d.BlockByKey("R", []query.Const{"b"}); ok {
		t.Fatal("block b should not exist yet")
	}
	if got := len(d.ActiveDomain()); got != 2 {
		t.Fatalf("adom size = %d", got)
	}
	d.Add(NewFact(relR, "b", "9"))
	if b, ok := d.BlockByKey("R", []query.Const{"b"}); !ok || len(b.Facts) != 1 {
		t.Errorf("BlockByKey after Add = %v, %v", b, ok)
	}
	if got := len(d.ActiveDomain()); got != 4 {
		t.Errorf("adom after Add = %d, want 4", got)
	}
	d.Add(NewFact(relR, "a", "2"))
	if b, _ := d.BlockByKey("R", []query.Const{"a"}); len(b.Facts) != 2 {
		t.Errorf("block a after second Add = %v", b)
	}
	if got := len(d.BlocksOf("R")); got != 2 {
		t.Errorf("BlocksOf(R) = %d blocks, want 2", got)
	}
}

// TestConcurrentIndexReads: concurrent reads, including the first build
// of the columnar view the key probe consults, are safe and consistent;
// run with -race.
func TestConcurrentIndexReads(t *testing.T) {
	d := New()
	for i := 0; i < 200; i++ {
		d.Add(NewFact(relR, query.Const(strings.Repeat("k", 1+i%7)), query.Const(string(rune('a'+i%26)))))
	}
	done := make(chan int, 8)
	for w := 0; w < 8; w++ {
		go func() {
			n := len(d.Blocks()) + len(d.ActiveDomain()) + len(d.FactsOf("R")) + d.Columnar().Rel("R").Rel.NumBlocks()
			if _, ok := d.BlockByKey("R", []query.Const{"k"}); !ok {
				n = -1
			}
			done <- n
		}()
	}
	first := <-done
	for w := 1; w < 8; w++ {
		if got := <-done; got != first {
			t.Fatalf("concurrent readers disagree: %d vs %d", got, first)
		}
	}
	if first < 0 {
		t.Fatal("BlockByKey missed an existing block")
	}
}

func TestDBString(t *testing.T) {
	d := FromFacts(NewFact(relR, "a", "b"))
	if d.String() != "R(a | b)" {
		t.Errorf("String = %q", d.String())
	}
}
