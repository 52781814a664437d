package db

import (
	"bufio"
	"fmt"
	"strings"

	"cqa/internal/query"
	"cqa/internal/schema"
)

// ParseFacts reads facts, one per line, in the form
//
//	R(a, b | c)
//
// where every argument is a constant (no quoting needed). Blank lines and
// lines starting with '#' are skipped. The relation's signature is taken
// from the schema when registered there; otherwise it is inferred from the
// bar (key | non-key). Without a bar and without a schema entry, the first
// position is the key. A relation name has one signature: a line whose
// inferred signature contradicts an earlier line's for the same name is
// rejected with its line number.
func ParseFacts(s *schema.Schema, text string) (*DB, error) {
	d := New()
	scanner := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f, err := ParseFact(s, line)
		if err == nil {
			_, err = d.Insert(f)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// ParseFact parses a single fact like "R(a, b | c)". See ParseFacts.
// A NUL byte is rejected anywhere in the line: block and fact IDs join
// constants with NUL, so a constant holding one could make two distinct
// keys collide.
func ParseFact(s *schema.Schema, line string) (Fact, error) {
	if strings.IndexByte(line, 0) >= 0 {
		return Fact{}, fmt.Errorf("db: fact %q contains a NUL byte", line)
	}
	open := strings.IndexByte(line, '(')
	if open < 0 || !strings.HasSuffix(line, ")") {
		return Fact{}, fmt.Errorf("db: malformed fact %q", line)
	}
	head := strings.TrimSpace(line[:open])
	mode := schema.ModeI
	if strings.HasSuffix(head, "#c") {
		mode = schema.ModeC
		head = strings.TrimSuffix(head, "#c")
	}
	body := line[open+1 : len(line)-1]
	if strings.Count(body, "|") > 1 {
		return Fact{}, fmt.Errorf("db: two bars in fact %q", line)
	}
	keyLen := -1
	var args []query.Const
	segments := strings.SplitN(body, "|", 2)
	for si, seg := range segments {
		if strings.TrimSpace(seg) == "" {
			if si == 1 {
				continue // "R(a, b |)": whole tuple is the key
			}
			return Fact{}, fmt.Errorf("db: fact %q has an empty key part", line)
		}
		for _, part := range strings.Split(seg, ",") {
			part = strings.TrimSpace(part)
			part = strings.Trim(part, "'")
			if part == "" {
				return Fact{}, fmt.Errorf("db: empty argument in fact %q", line)
			}
			args = append(args, query.Const(part))
		}
		if si == 0 && len(segments) == 2 {
			keyLen = len(args)
		}
	}
	var rel schema.Relation
	if s != nil {
		if r, ok := s.Lookup(head); ok {
			rel = r
			if len(args) != rel.Arity {
				return Fact{}, fmt.Errorf("db: fact %q has %d arguments, %s expects %d",
					line, len(args), rel, rel.Arity)
			}
			if keyLen >= 0 && keyLen != rel.KeyLen {
				return Fact{}, fmt.Errorf("db: fact %q declares key length %d, %s expects %d",
					line, keyLen, rel, rel.KeyLen)
			}
			return Fact{Rel: rel, Args: args}, nil
		}
	}
	if keyLen < 0 {
		keyLen = 1
	}
	rel = schema.Relation{Name: head, Arity: len(args), KeyLen: keyLen, Mode: mode}
	if err := rel.Validate(); err != nil {
		return Fact{}, err
	}
	return Fact{Rel: rel, Args: args}, nil
}

// FactFromAtom grounds an atom through a valuation. The valuation must
// bind every variable of the atom.
func FactFromAtom(a query.Atom, v query.Valuation) (Fact, error) {
	args := make([]query.Const, len(a.Args))
	for i, t := range a.Args {
		c, ok := v.Apply(t)
		if !ok {
			return Fact{}, fmt.Errorf("db: unbound variable %s grounding atom %s", t, a)
		}
		args[i] = c
	}
	return Fact{Rel: a.Rel, Args: args}, nil
}

// MustFactFromAtom is FactFromAtom but panics on unbound variables.
func MustFactFromAtom(a query.Atom, v query.Valuation) Fact {
	f, err := FactFromAtom(a, v)
	if err != nil {
		panic(err)
	}
	return f
}

// GroundQuery grounds every atom of q through v; it fails if any variable
// of q is unbound.
func GroundQuery(q query.Query, v query.Valuation) ([]Fact, error) {
	out := make([]Fact, 0, q.Len())
	for _, a := range q.Atoms {
		f, err := FactFromAtom(a, v)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// ConsistentSet reports whether a set of facts contains no two distinct
// key-equal facts.
func ConsistentSet(facts []Fact) bool {
	seen := make(map[string]string, len(facts))
	for _, f := range facts {
		bid := f.BlockID()
		id := f.ID()
		if prev, ok := seen[bid]; ok {
			if prev != id {
				return false
			}
		} else {
			seen[bid] = id
		}
	}
	return true
}
