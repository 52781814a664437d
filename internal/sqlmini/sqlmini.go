// Package sqlmini is a tiny evaluator for the SQL-92 fragment emitted by
// rewrite.SQL: boolean combinations of (NOT) EXISTS subqueries of the
// form SELECT 1 FROM <relation> <alias> [WHERE <condition>], with
// comparisons between alias.cN columns and quoted literals. It exists so
// the repository can machine-check the SQL rewriting against the direct
// certain-answer evaluator without an external database engine.
package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"cqa/internal/db"
)

// Expr is a boolean condition.
type Expr interface{ eval(env *env) (bool, error) }

// Query is a parsed "SELECT 1 WHERE <cond>" statement.
type Query struct {
	Cond Expr
}

// Eval runs the statement against the database: true when the statement
// returns a row.
func (q *Query) Eval(d *db.DB) (bool, error) {
	e := &env{d: d, rows: map[string]db.Fact{}}
	return q.Cond.eval(e)
}

type env struct {
	d    *db.DB
	rows map[string]db.Fact // alias -> current row
}

// ---- AST ----

type boolLit struct{ v bool }

type notExpr struct{ inner Expr }

func (n notExpr) eval(e *env) (bool, error) {
	v, err := n.inner.eval(e)
	return !v, err
}

type binary struct {
	op   string // AND, OR
	l, r Expr
}

type compare struct {
	op   string // =, <>
	l, r operand
}

type exists struct {
	negated bool
	rel     string
	alias   string
	where   Expr // may be nil
}

type operand struct {
	lit   string // quoted literal, valid when isLit
	isLit bool
	alias string
	col   int
}

func (b boolLit) eval(*env) (bool, error) { return b.v, nil }

func (b binary) eval(e *env) (bool, error) {
	l, err := b.l.eval(e)
	if err != nil {
		return false, err
	}
	if b.op == "AND" && !l {
		return false, nil
	}
	if b.op == "OR" && l {
		return true, nil
	}
	return b.r.eval(e)
}

func (c compare) eval(e *env) (bool, error) {
	l, err := c.l.value(e)
	if err != nil {
		return false, err
	}
	r, err := c.r.value(e)
	if err != nil {
		return false, err
	}
	if c.op == "=" {
		return l == r, nil
	}
	return l != r, nil
}

func (o operand) value(e *env) (string, error) {
	if o.isLit {
		return o.lit, nil
	}
	row, ok := e.rows[o.alias]
	if !ok {
		return "", fmt.Errorf("sqlmini: alias %s not in scope", o.alias)
	}
	if o.col < 1 || o.col > len(row.Args) {
		return "", fmt.Errorf("sqlmini: column c%d out of range for %s", o.col, o.alias)
	}
	return string(row.Args[o.col-1]), nil
}

func (x exists) eval(e *env) (bool, error) {
	found := false
rows:
	for _, b := range e.d.BlocksOf(x.rel) {
		for _, f := range b.Facts {
			e.rows[x.alias] = f
			ok := true
			if x.where != nil {
				var err error
				ok, err = x.where.eval(e)
				if err != nil {
					delete(e.rows, x.alias)
					return false, err
				}
			}
			if ok {
				found = true
				break rows
			}
		}
	}
	delete(e.rows, x.alias)
	if x.negated {
		return !found, nil
	}
	return found, nil
}

// ---- Parser ----

// Parse reads a statement of the form "SELECT 1 WHERE <cond>".
func Parse(s string) (*Query, error) {
	p := &parser{toks: tokenize(s)}
	if err := p.expectWords("SELECT", "1", "WHERE"); err != nil {
		return nil, err
	}
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.atEnd() {
		return nil, fmt.Errorf("sqlmini: trailing tokens at %q", p.peek())
	}
	return &Query{Cond: cond}, nil
}

type parser struct {
	toks []string
	pos  int
}

func tokenize(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '(' || c == ')' || c == ',':
			toks = append(toks, string(c))
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for j < len(s) {
				if s[j] == '\'' {
					if j+1 < len(s) && s[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(s[j])
				j++
			}
			toks = append(toks, "'"+sb.String())
			i = j + 1
		case c == '=':
			toks = append(toks, "=")
			i++
		case c == '<' && i+1 < len(s) && s[i+1] == '>':
			toks = append(toks, "<>")
			i += 2
		case c == '/' && i+1 < len(s) && s[i+1] == '*':
			j := strings.Index(s[i:], "*/")
			if j < 0 {
				i = len(s)
			} else {
				i += j + 2
			}
		default:
			j := i
			for j < len(s) && (s[j] == '.' || s[j] == '_' || unicode.IsLetter(rune(s[j])) || unicode.IsDigit(rune(s[j]))) {
				j++
			}
			if j == i {
				toks = append(toks, string(c))
				i++
			} else {
				toks = append(toks, s[i:j])
				i = j
			}
		}
	}
	return toks
}

func (p *parser) atEnd() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() string {
	if p.atEnd() {
		return ""
	}
	return p.toks[p.pos]
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expectWords(words ...string) error {
	for _, w := range words {
		if !strings.EqualFold(p.peek(), w) {
			return fmt.Errorf("sqlmini: expected %q, got %q", w, p.peek())
		}
		p.next()
	}
	return nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for strings.EqualFold(p.peek(), "OR") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = binary{op: "OR", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for strings.EqualFold(p.peek(), "AND") {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = binary{op: "AND", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch {
	case strings.EqualFold(p.peek(), "NOT"):
		p.next()
		if strings.EqualFold(p.peek(), "EXISTS") {
			return p.parseExists(true)
		}
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return notExpr{inner}, nil
	case strings.EqualFold(p.peek(), "EXISTS"):
		return p.parseExists(false)
	case p.peek() == "(":
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("sqlmini: missing )")
		}
		return e, nil
	default:
		return p.parseComparison()
	}
}

func (p *parser) parseExists(negated bool) (Expr, error) {
	p.next() // EXISTS
	if p.next() != "(" {
		return nil, fmt.Errorf("sqlmini: EXISTS needs (")
	}
	if err := p.expectWords("SELECT", "1", "FROM"); err != nil {
		return nil, err
	}
	rel := p.next()
	alias := p.next()
	var where Expr
	if strings.EqualFold(p.peek(), "WHERE") {
		p.next()
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		where = w
	}
	if p.next() != ")" {
		return nil, fmt.Errorf("sqlmini: EXISTS not closed")
	}
	return exists{negated: negated, rel: rel, alias: alias, where: where}, nil
}

func (p *parser) parseComparison() (Expr, error) {
	tok := p.peek()
	// 1=1 and 1=0 arrive as single tokens from the tokenizer ("1", "=",
	// "1") — handle the general operand form.
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	op := p.next()
	if op != "=" && op != "<>" {
		return nil, fmt.Errorf("sqlmini: expected comparison near %q, got %q", tok, op)
	}
	r, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	// Constant-fold 1=1 / 1=0.
	if l.isLit && r.isLit {
		if op == "=" {
			return boolLit{l.lit == r.lit}, nil
		}
		return boolLit{l.lit != r.lit}, nil
	}
	return compare{op: op, l: l, r: r}, nil
}

func (p *parser) parseOperand() (operand, error) {
	t := p.next()
	if t == "" {
		return operand{}, fmt.Errorf("sqlmini: unexpected end of input")
	}
	if strings.HasPrefix(t, "'") {
		return operand{isLit: true, lit: t[1:]}, nil
	}
	if dot := strings.IndexByte(t, '.'); dot > 0 {
		alias := t[:dot]
		colPart := t[dot+1:]
		if !strings.HasPrefix(colPart, "c") {
			return operand{}, fmt.Errorf("sqlmini: bad column reference %q", t)
		}
		col, err := strconv.Atoi(colPart[1:])
		if err != nil {
			return operand{}, fmt.Errorf("sqlmini: bad column reference %q", t)
		}
		return operand{alias: alias, col: col}, nil
	}
	// Bare numeric literal (as in the 1=1 guards).
	if _, err := strconv.Atoi(t); err == nil {
		return operand{isLit: true, lit: t}, nil
	}
	return operand{}, fmt.Errorf("sqlmini: unexpected operand %q", t)
}

// EvalString parses and evaluates a statement in one step.
func EvalString(sql string, d *db.DB) (bool, error) {
	q, err := Parse(sql)
	if err != nil {
		return false, err
	}
	return q.Eval(d)
}
