package match

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cqa/internal/db"
	"cqa/internal/query"
	"cqa/internal/schema"
	"cqa/internal/workload"
)

// oracleWalk is the map-driven backtracking join the compiled join
// replaced, kept as its reference. At every node it picks the next atom
// afresh — a fully bound key first, then the most bound positions, ties
// to the lowest atom index — probes the block of a bound key and scans
// the relation otherwise, and unifies through the valuation map.
func oracleWalk(ix *Index, q query.Query, partial query.Valuation, yield func(query.Valuation, []hit) bool) bool {
	return oracleRec(ix, q, make([]hit, q.Len()), partial.Clone(), yield)
}

func oracleRec(ix *Index, q query.Query, hits []hit, val query.Valuation, yield func(query.Valuation, []hit) bool) bool {
	next, bestBound, bestKey := -1, -1, false
	for i, a := range q.Atoms {
		if hits[i].blk.Facts != nil {
			continue
		}
		b, kb := oracleBoundCount(a, val)
		if kb && !bestKey {
			next, bestBound, bestKey = i, b, true
		} else if kb == bestKey && b > bestBound {
			next, bestBound = i, b
		}
	}
	if next < 0 {
		return yield(val, hits)
	}
	a := q.Atoms[next]
	defer func() { hits[next] = hit{} }()
	scan := func(blk db.Block, pos int) bool {
		for s, f := range blk.Facts {
			added, ok := oracleUnify(a, f, val)
			if !ok {
				continue
			}
			hits[next] = hit{blk: blk, pos: int32(pos), slot: int32(s)}
			cont := oracleRec(ix, q, hits, val, yield)
			for _, v := range added {
				delete(val, v)
			}
			if !cont {
				return false
			}
		}
		return true
	}
	if bestKey {
		key := make([]query.Const, a.Rel.KeyLen)
		for i, t := range a.KeyArgs() {
			key[i], _ = val.Apply(t)
		}
		blk, ok := ix.DB.BlockByKey(a.Rel.Name, key)
		// The position is found by searching the relation's blocks for
		// the block's ID, not by the positional probe under test.
		return !ok || scan(blk, slices.IndexFunc(ix.DB.BlocksOf(a.Rel.Name), func(b db.Block) bool { return b.ID == blk.ID }))
	}
	for pos, blk := range ix.DB.BlocksOf(a.Rel.Name) {
		if !scan(blk, pos) {
			return false
		}
	}
	return true
}

// oracleBoundCount counts the atom's positions val binds, constants
// included, and reports whether its key is fully bound.
func oracleBoundCount(a query.Atom, val query.Valuation) (bound int, keyFullyBound bool) {
	keyFullyBound = true
	for i, t := range a.Args {
		if t.IsConst() {
			bound++
			continue
		}
		if _, ok := val[t.Var()]; ok {
			bound++
		} else if i < a.Rel.KeyLen {
			keyFullyBound = false
		}
	}
	return bound, keyFullyBound
}

// oracleUnify extends val so that the atom maps onto the fact, returning
// the variables it bound; on failure val is left unchanged.
func oracleUnify(a query.Atom, f db.Fact, val query.Valuation) ([]query.Var, bool) {
	var added []query.Var
	for i, t := range a.Args {
		c := f.Args[i]
		if t.IsConst() {
			if t.Const() == c {
				continue
			}
		} else if bound, ok := val[t.Var()]; ok {
			if bound == c {
				continue
			}
		} else {
			val[t.Var()] = c
			added = append(added, t.Var())
			continue
		}
		for _, v := range added {
			delete(val, v)
		}
		return nil, false
	}
	return added, true
}

// TestCompiledJoinMatchesOracle: on seeded random instances the compiled
// join yields exactly the oracle's sequence of valuations (through
// MatchChecked) and of hits (through walk, which Constraints and
// gRelevant read). The instances mix constants in atoms,
// repeated variables within an atom, composite keys, partial
// valuations (some binding variables outside q), facts that miss an
// atom's constant, relations absent from
// the database, probes on the row map and on a warmed columnar view,
// and atoms whose key is unbound while other positions
// are bound (the lookup-table path, met more than once per walk).
func TestCompiledJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2015))
	fixed := []query.Query{
		query.MustParse("R(x | y), S(u | y)"),
		query.MustParse("R(x | y, 'c1'), S(u | y, y)"),
		query.MustParse("R(x, z | y), S(u | y, z), T(z | w)"),
		query.MustParse("R(x | y), S(u, v | y, x)"),
		query.MustParse("R(x | x, y), S(y | z), T(u | z, 'c0')"),
	}
	absent := schema.Relation{Name: "Nowhere", Arity: 2, KeyLen: 1}
	var instances, lookups, partials, empty int
	for trial := 0; trial < 600; trial++ {
		var q query.Query
		if trial%2 == 0 {
			q = fixed[trial/2%len(fixed)]
		} else {
			p := workload.DefaultQueryParams()
			p.Atoms = 1 + rng.Intn(4)
			p.PConst = 0.15
			q = workload.RandomQuery(rng, p)
		}
		dp := workload.DefaultDBParams()
		dp.SeedMatches = 1 + rng.Intn(8)
		dp.Domain = 2 + rng.Intn(3)
		dp.ExtraPerBlock = rng.Float64()
		dp.Noise = rng.Intn(8)
		d := workload.RandomDB(rng, q, dp)
		// Facts that miss one of their atom's constants, for the tables
		// to filter out.
		for _, a := range q.Atoms {
			for _, f := range d.FactsOf(a.Rel.Name) {
				for j, t := range a.Args {
					if t.IsConst() && rng.Intn(2) == 0 {
						args := slices.Clone(f.Args)
						args[j] = "zz"
						d.Add(db.NewFact(f.Rel, args...))
					}
				}
			}
		}
		if trial%7 == 0 {
			q = q.Add(query.NewAtom(absent, query.V("x"), query.V("gone")))
		}
		// A partial valuation binds some of q's variables to values from
		// an embedding or from nowhere, and maybe one variable outside q.
		partial := query.Valuation{}
		if trial%3 != 0 {
			vars := q.Vars().Sorted()
			ms := AllMatches(q, d)
			for _, v := range vars {
				if rng.Intn(3) > 0 {
					continue
				}
				if len(ms) > 0 && rng.Intn(4) > 0 {
					partial[v] = ms[rng.Intn(len(ms))][v]
				} else {
					partial[v] = query.Const(fmt.Sprint("c", rng.Intn(3)))
				}
			}
			if rng.Intn(3) == 0 {
				partial["outside"] = "o"
			}
			if len(partial) > 0 {
				partials++
			}
		}
		if trial%4 < 2 {
			d.Columnar() // probes read the interned key table
		}
		ix := NewIndex(d)
		var wantVals, wantHits, gotVals, gotHits []string
		oracleWalk(ix, q, partial, func(v query.Valuation, hits []hit) bool {
			wantVals = append(wantVals, v.String())
			wantHits = append(wantHits, fmt.Sprint(hits))
			return true
		})
		ix.MatchChecked(q, partial, nil, func(v query.Valuation) bool {
			gotVals = append(gotVals, v.String())
			return true
		})
		p := compilePartial(q, partial)
		slots := make([]query.Const, len(p.vars))
		for i, v := range p.vars {
			slots[i] = partial[v]
		}
		walk(p, p.resolve(d), slots, nil, func(hits []hit) bool {
			gotHits = append(gotHits, fmt.Sprint(hits))
			return true
		})
		if !slices.Equal(gotVals, wantVals) || !slices.Equal(gotHits, wantHits) {
			t.Fatalf("q = %s, partial %v\ndb:\n%s\ncompiled join:\n%v\n%v\noracle:\n%v\n%v", q, partial, d, gotVals, gotHits, wantVals, wantHits)
		}
		for _, st := range p.steps {
			if st.access == lookup {
				lookups++
				break
			}
		}
		if len(wantVals) == 0 {
			empty++
		}
		instances++
	}
	t.Logf("%d instances: %d with a lookup step, %d with a partial valuation, %d without embeddings", instances, lookups, partials, empty)
	if lookups < 100 || partials < 100 || empty < 20 || instances-empty < 200 {
		t.Errorf("corpus too thin: %d lookups, %d partials, %d empty of %d", lookups, partials, empty, instances)
	}
}
