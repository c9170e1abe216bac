package sqlish

import (
	"fmt"
	"strconv"
	"strings"

	"monsoon/internal/expr"
	"monsoon/internal/query"
	"monsoon/internal/value"
)

// UDFFactory builds a UDF instance from its call-site arguments: attrs are
// the fully qualified attribute references, consts the literal arguments, in
// their original relative order within each class.
type UDFFactory func(attrs []string, consts []value.Value) (*expr.UDF, error)

// Registry resolves UDF names (case-insensitive) to factories. A Registry
// with the library UDFs pre-registered comes from NewRegistry; Register adds
// custom ones.
type Registry struct {
	factories map[string]UDFFactory
}

// Register adds or replaces a factory under a (case-insensitive) name.
func (r *Registry) Register(name string, f UDFFactory) {
	r.factories[strings.ToLower(name)] = f
}

// Lookup resolves a factory.
func (r *Registry) Lookup(name string) (UDFFactory, bool) {
	f, ok := r.factories[strings.ToLower(name)]
	return f, ok
}

func nArgs(name string, wantAttrs, wantConsts int, f func([]string, []value.Value) *expr.UDF) UDFFactory {
	return func(attrs []string, consts []value.Value) (*expr.UDF, error) {
		if len(attrs) != wantAttrs || len(consts) != wantConsts {
			return nil, fmt.Errorf("sqlish: %s expects %d attribute and %d literal arguments, got %d and %d",
				name, wantAttrs, wantConsts, len(attrs), len(consts))
		}
		return f(attrs, consts), nil
	}
}

// minConst wraps a factory whose one literal argument must be at least min:
// HashMod's bucket count and SumMod's modulus divide at evaluation time and
// Prefix's length slices, so an out-of-range constant is a parse error here
// rather than a failure in the middle of a query.
func minConst(name, what string, min int64, f UDFFactory) UDFFactory {
	return func(attrs []string, consts []value.Value) (*expr.UDF, error) {
		fn, err := f(attrs, consts)
		if err != nil {
			return nil, err
		}
		if c := consts[0]; c.Kind() != value.KindInt || c.AsInt() < min {
			return nil, fmt.Errorf("sqlish: %s %s must be an integer ≥ %d, got %s", name, what, min, c)
		}
		return fn, nil
	}
}

// NewRegistry returns a registry with the expr stdlib pre-registered under
// their SQL-visible names.
func NewRegistry() *Registry {
	r := &Registry{factories: map[string]UDFFactory{}}
	r.Register("ExtractDate", nArgs("ExtractDate", 1, 0, func(a []string, _ []value.Value) *expr.UDF {
		return expr.ExtractDate(a[0])
	}))
	r.Register("City", nArgs("City", 1, 0, func(a []string, _ []value.Value) *expr.UDF {
		return expr.City(a[0])
	}))
	r.Register("Lower", nArgs("Lower", 1, 0, func(a []string, _ []value.Value) *expr.UDF {
		return expr.Lower(a[0])
	}))
	r.Register("YearOf", nArgs("YearOf", 1, 0, func(a []string, _ []value.Value) *expr.UDF {
		return expr.YearOf(a[0])
	}))
	r.Register("SetKey", nArgs("SetKey", 1, 0, func(a []string, _ []value.Value) *expr.UDF {
		return expr.SetEqualsKey(a[0])
	}))
	r.Register("Prefix", minConst("Prefix", "length", 0, nArgs("Prefix", 1, 1, func(a []string, c []value.Value) *expr.UDF {
		return expr.Prefix(a[0], int(c[0].AsInt()))
	})))
	r.Register("HashMod", minConst("HashMod", "bucket count", 1, nArgs("HashMod", 1, 1, func(a []string, c []value.Value) *expr.UDF {
		return expr.HashMod(a[0], c[0].AsInt())
	})))
	r.Register("Sprintf", nArgs("Sprintf", 1, 1, func(a []string, c []value.Value) *expr.UDF {
		return expr.Sprintf(a[0], c[0].AsString())
	}))
	r.Register("Between", nArgs("Between", 1, 2, func(a []string, c []value.Value) *expr.UDF {
		return expr.Between(a[0], c[0].AsString(), c[1].AsString())
	}))
	r.Register("ConcatKey", nArgs("ConcatKey", 2, 0, func(a []string, _ []value.Value) *expr.UDF {
		return expr.ConcatKey(a[0], a[1])
	}))
	r.Register("SumMod", minConst("SumMod", "modulus", 1, nArgs("SumMod", 2, 1, func(a []string, c []value.Value) *expr.UDF {
		return expr.SumMod(a[0], a[1], c[0].AsInt())
	})))
	return r
}

// term is one side of a parsed condition.
type term struct {
	fn    *expr.UDF   // non-nil for UDF calls and attribute refs (identity)
	lit   value.Value // set when the side is a literal
	isLit bool
	pos   int
}

// parser holds the token stream.
type parser struct {
	lex  *lexer
	tok  token
	reg  *Registry
	name string
}

// Parse parses one statement into a query. The name labels the query (for
// benchmark tables and traces); reg may be nil for the default registry.
func Parse(name, src string, reg *Registry) (*query.Query, error) {
	if reg == nil {
		reg = NewRegistry()
	}
	p := &parser{lex: &lexer{src: src}, reg: reg, name: name}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.parseSelect()
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlish: at offset %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *parser) keyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errf("expected %s, found %s", kw, p.tok)
	}
	return p.advance()
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.errf("expected %s, found %s", what, p.tok)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) parseSelect() (*query.Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	b := query.NewBuilder(p.name)
	// Aggregate: COUNT(*) or SUM(alias.attr).
	switch {
	case p.keyword("COUNT"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokStar, "*"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
	case p.keyword("SUM"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		attr, err := p.parseQualifiedAttr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		b.Sum(attr)
	default:
		return nil, p.errf("expected COUNT(*) or SUM(attr), found %s", p.tok)
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		tbl, err := p.expect(tokIdent, "table name")
		if err != nil {
			return nil, err
		}
		alias := tbl.text
		if p.tok.kind == tokIdent && !p.keyword("WHERE") {
			alias = p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		b.Rel(alias, tbl.text)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}

	if p.tok.kind != tokEOF {
		if err := p.expectKeyword("WHERE"); err != nil {
			return nil, err
		}
		for {
			if err := p.parseCondition(b); err != nil {
				return nil, err
			}
			if !p.keyword("AND") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected trailing input: %s", p.tok)
	}
	return b.Build()
}

// parseCondition parses `term = term` and adds it as a join or selection.
func (p *parser) parseCondition(b *query.Builder) error {
	left, err := p.parseTerm()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokEq, "="); err != nil {
		return err
	}
	right, err := p.parseTerm()
	if err != nil {
		return err
	}
	switch {
	case !left.isLit && !right.isLit:
		b.Join(left.fn, right.fn)
	case !left.isLit && right.isLit:
		b.Select(left.fn, right.lit)
	case left.isLit && !right.isLit:
		b.Select(right.fn, left.lit)
	default:
		return fmt.Errorf("sqlish: at offset %d: a condition between two literals is not supported", left.pos)
	}
	return nil
}

// parseTerm parses a UDF call, a qualified attribute (wrapped in Identity),
// or a literal.
func (p *parser) parseTerm() (term, error) {
	pos := p.tok.pos
	switch p.tok.kind {
	case tokString:
		v := value.String(p.tok.text)
		return term{lit: v, isLit: true, pos: pos}, p.advance()
	case tokNumber:
		v, err := parseNumber(p.tok.text)
		if err != nil {
			return term{}, p.errf("%v", err)
		}
		return term{lit: v, isLit: true, pos: pos}, p.advance()
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return term{}, err
		}
		if p.tok.kind == tokDot {
			// alias.attr
			if err := p.advance(); err != nil {
				return term{}, err
			}
			attr, err := p.expect(tokIdent, "attribute name")
			if err != nil {
				return term{}, err
			}
			return term{fn: expr.Identity(name + "." + attr.text), pos: pos}, nil
		}
		if p.tok.kind != tokLParen {
			return term{}, p.errf("expected '.' or '(' after %q", name)
		}
		return p.parseCall(name, pos)
	default:
		return term{}, p.errf("expected a term, found %s", p.tok)
	}
}

// parseCall parses name(arg, ...) where args are qualified attributes or
// literals, and instantiates the UDF through the registry.
func (p *parser) parseCall(name string, pos int) (term, error) {
	factory, ok := p.reg.Lookup(name)
	if !ok {
		return term{}, p.errf("unknown UDF %q (register it before parsing)", name)
	}
	if err := p.advance(); err != nil { // consume '('
		return term{}, err
	}
	var attrs []string
	var consts []value.Value
	for p.tok.kind != tokRParen {
		switch p.tok.kind {
		case tokIdent:
			a, err := p.parseQualifiedAttr()
			if err != nil {
				return term{}, err
			}
			attrs = append(attrs, a)
		case tokString:
			consts = append(consts, value.String(p.tok.text))
			if err := p.advance(); err != nil {
				return term{}, err
			}
		case tokNumber:
			v, err := parseNumber(p.tok.text)
			if err != nil {
				return term{}, p.errf("%v", err)
			}
			consts = append(consts, v)
			if err := p.advance(); err != nil {
				return term{}, err
			}
		default:
			return term{}, p.errf("expected a UDF argument, found %s", p.tok)
		}
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return term{}, err
			}
		}
	}
	if err := p.advance(); err != nil { // consume ')'
		return term{}, err
	}
	fn, err := factory(attrs, consts)
	if err != nil {
		return term{}, err
	}
	return term{fn: fn, pos: pos}, nil
}

func (p *parser) parseQualifiedAttr() (string, error) {
	alias, err := p.expect(tokIdent, "alias")
	if err != nil {
		return "", err
	}
	if _, err := p.expect(tokDot, "'.'"); err != nil {
		return "", err
	}
	attr, err := p.expect(tokIdent, "attribute name")
	if err != nil {
		return "", err
	}
	return alias.text + "." + attr.text, nil
}

func parseNumber(text string) (value.Value, error) {
	if strings.ContainsRune(text, '.') {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return value.Null(), fmt.Errorf("bad number %q", text)
		}
		return value.Float(f), nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return value.Null(), fmt.Errorf("bad number %q", text)
	}
	return value.Int(n), nil
}
