package db

import "testing"

// FuzzParseFact: the fact parser must never panic and accepted facts
// must round-trip through String. The input is also parsed as a
// multi-line upload, which must never panic and must keep one signature
// per relation name.
func FuzzParseFact(f *testing.F) {
	for _, seed := range []string{
		"R(a | b)",
		"S(x, y | z)",
		"T#c(k | v)",
		"R(a, b |)",
		"R(a",
		"",
		"R(a,,b)",
		"R(a | b | c)",
		// Conflicting signatures under one name: arity, key, mode.
		"R(a, b | c)\nR(a | b)",
		"R(a | b)\nR(q, r, s | t)",
		"R(a | b)\nR#c(a | b)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if d, err := ParseFacts(nil, s); err == nil {
			for _, g := range d.Facts() {
				if sig, ok := d.Signature(g.Rel.Name); !ok || sig != g.Rel {
					t.Fatalf("upload %q stores %s under signature %v", s, g, sig)
				}
			}
		}
		fact, err := ParseFact(nil, s)
		if err != nil {
			return
		}
		back, err := ParseFact(nil, fact.String())
		if err != nil {
			t.Fatalf("round trip parse failed: %q -> %q: %v", s, fact.String(), err)
		}
		if !fact.Equal(back) {
			t.Fatalf("round trip changed fact: %q -> %q -> %q", s, fact.String(), back.String())
		}
		// Parse → intern → print round trip: the columnar view of a
		// database holding the fact must intern every constant so it
		// prints back identically, and the ground-key probe of the
		// warmed snapshot must find the fact's block.
		d := FromFacts(fact)
		c := d.Columnar()
		n := c.Syms.Len()
		for _, a := range fact.Args {
			id := c.Syms.Intern(string(a))
			if c.Syms.Len() != n {
				t.Fatalf("constant %q of %q not interned", a, fact.String())
			}
			if got := c.Syms.String(id); got != string(a) {
				t.Fatalf("intern round trip changed %q to %q", a, got)
			}
		}
		blk, ok := d.BlockByKey(fact.Rel.Name, fact.Key())
		if !ok || len(blk.Facts) != 1 || !blk.Facts[0].Equal(fact) {
			t.Fatalf("warm BlockByKey lost %q: ok=%v block=%v", fact.String(), ok, blk)
		}
	})
}
