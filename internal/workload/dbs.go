package workload

import (
	"fmt"
	"math/rand"

	"cqa/internal/db"
	"cqa/internal/query"
	"cqa/internal/schema"
)

// DBParams controls random database generation for a query.
type DBParams struct {
	// SeedMatches is the number of random valuations theta whose image
	// theta(q) is inserted, guaranteeing embeddings exist.
	SeedMatches int
	// Domain is the number of constants per variable pool; smaller
	// domains force more sharing between seeded matches.
	Domain int
	// ExtraPerBlock is the expected number of additional key-equal facts
	// per seeded fact (introducing primary-key violations).
	ExtraPerBlock float64
	// Noise is the number of unrelated random facts per relation.
	Noise int
}

// DefaultDBParams returns parameters for small differential-testing
// databases.
func DefaultDBParams() DBParams {
	return DBParams{SeedMatches: 3, Domain: 3, ExtraPerBlock: 0.7, Noise: 2}
}

// constFor returns the c-th constant of the pool belonging to a variable;
// pools are disjoint across variables, so generated databases are
// automatically typed relative to the query.
func constFor(v query.Var, c int) query.Const {
	return query.Const(fmt.Sprintf("%s_%d", v, c))
}

// RandomValuation draws a valuation over vars(q) with each variable bound
// inside its own pool of the given size.
func RandomValuation(rng *rand.Rand, q query.Query, domain int) query.Valuation {
	val := query.Valuation{}
	for _, v := range q.Vars().Sorted() {
		val[v] = constFor(v, rng.Intn(domain))
	}
	return val
}

// RandomDB generates an uncertain database for q: seeded embeddings, extra
// key-equal facts (primary-key violations), and noise. Mode-c relations
// are kept consistent, as required for legal inputs.
func RandomDB(rng *rand.Rand, q query.Query, p DBParams) *db.DB {
	if p.Domain < 1 {
		p.Domain = 1
	}
	d := db.New()
	addRespectingModeC := func(f db.Fact) bool {
		if f.Rel.Mode == schema.ModeC {
			for _, g := range d.BlockOf(f).Facts {
				if !g.Equal(f) {
					return false // would make a mode-c relation inconsistent
				}
			}
		}
		return d.Add(f)
	}
	// Seed embeddings, remembered in insertion order: the extra facts
	// below draw from the generator in that order.
	var seeded []db.Fact
	for s := 0; s < p.SeedMatches; s++ {
		val := RandomValuation(rng, q, p.Domain)
		for _, a := range q.Atoms {
			f, err := db.FactFromAtom(a, val)
			if err != nil {
				continue
			}
			if addRespectingModeC(f) {
				seeded = append(seeded, f)
			}
		}
	}
	// Extra facts inside existing blocks: copy a fact and rerandomize its
	// non-key positions within the pools of the atom's variables.
	for _, f := range seeded {
		if f.Rel.Mode == schema.ModeC {
			continue
		}
		n := 0
		for rng.Float64() < p.ExtraPerBlock {
			n++
			if n > 4 {
				break
			}
			atom, ok := q.AtomWithRel(f.Rel.Name)
			if !ok {
				break
			}
			args := append([]query.Const(nil), f.Args...)
			for i := f.Rel.KeyLen; i < f.Rel.Arity; i++ {
				t := atom.Args[i]
				if t.IsVar() {
					args[i] = constFor(t.Var(), rng.Intn(p.Domain))
				}
			}
			d.Add(db.Fact{Rel: f.Rel, Args: args})
		}
	}
	// Noise: random facts drawn from the atom's variable pools.
	for _, a := range q.Atoms {
		for i := 0; i < p.Noise; i++ {
			args := make([]query.Const, a.Rel.Arity)
			for j, t := range a.Args {
				if t.IsConst() {
					args[j] = t.Const()
				} else {
					args[j] = constFor(t.Var(), rng.Intn(p.Domain))
				}
			}
			addRespectingModeC(db.Fact{Rel: a.Rel, Args: args})
		}
	}
	return d
}

// Q0Instance encodes a directed graph reachability-style instance for
// q0 = {R0(x | y), S0(y | x)}: R0 holds edges u -> v grouped in blocks by
// u, S0 holds edges back. These instances exercise the L-hardness shape of
// Lemma 7.
func Q0Instance(rng *rand.Rand, nodes int, degree int) *db.DB {
	r0 := schema.NewRelation("R0", 2, 1)
	s0 := schema.NewRelation("S0", 2, 1)
	d := db.New()
	for u := 0; u < nodes; u++ {
		for k := 0; k < degree; k++ {
			v := rng.Intn(nodes)
			d.Add(db.NewFact(r0,
				query.Const(fmt.Sprintf("x_%d", u)),
				query.Const(fmt.Sprintf("y_%d", v))))
			d.Add(db.NewFact(s0,
				query.Const(fmt.Sprintf("y_%d", v)),
				query.Const(fmt.Sprintf("x_%d", u))))
		}
	}
	return d
}

// HardInstance generates an adversarial input for the coNP-complete query
// R(x | y), S(u | y): a bipartite "agreement" instance in the spirit of
// the SAT gadgets in the hardness proof of Theorem 3 / [19, Thm 2].
// Each R-block is a variable that chooses a value in {0..valuesPerVar-1};
// each S-block is a clause that chooses one of its literals; certainty
// holds iff every clause choice can be matched by a variable choice in
// every repair.
func HardInstance(rng *rand.Rand, vars, clauses, valuesPerVar int) *db.DB {
	r := schema.NewRelation("R", 2, 1)
	s := schema.NewRelation("S", 2, 1)
	d := db.New()
	lit := func(v, val int) query.Const {
		return query.Const(fmt.Sprintf("y_%d_%d", v, val))
	}
	for v := 0; v < vars; v++ {
		for val := 0; val < valuesPerVar; val++ {
			d.Add(db.NewFact(r, query.Const(fmt.Sprintf("x_%d", v)), lit(v, val)))
		}
	}
	for c := 0; c < clauses; c++ {
		// Each clause forbids a random assignment to a random variable:
		// the S-block joins on the same y-constants the R-blocks use.
		width := 1 + rng.Intn(3)
		for w := 0; w < width; w++ {
			v := rng.Intn(vars)
			val := rng.Intn(valuesPerVar)
			d.Add(db.NewFact(s, query.Const(fmt.Sprintf("u_%d", c)), lit(v, val)))
		}
	}
	return d
}
