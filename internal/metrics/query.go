package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Query evaluates a query expression against the store at the given time.
//
// The expression language is the PromQL subset the Bifrost DSL needs:
//
//	request_errors{instance="search:80"}        latest value (sum over series)
//	sum(http_requests{service="product"})       explicit aggregations:
//	avg(...), min(...), max(...), count(...)    over matching series
//	rate(http_requests{...}[30s])               per-second counter rate
//	increase(http_requests{...}[30s])           counter delta over window
//	avg_over_time(response_ms{...}[1m])         pooled window aggregations:
//	min_over_time, max_over_time,
//	sum_over_time, count_over_time,
//	stddev_over_time, var_over_time
//	quantile_over_time(0.95, response_ms{...}[1m])
//	scalar arithmetic: a / b, a + b, a - b, a * b, parentheses, numbers
//
// Window functions are answered from the per-series pre-aggregated bucket
// summaries where possible (see summary.go); wide-window quantiles stream
// through a sketch instead of sorting a copy of the window.
//
// A query that matches no fresh data returns ErrNoData.
func (s *Store) Query(expr string, at time.Time) (float64, error) {
	p := &queryParser{input: expr}
	node, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return 0, fmt.Errorf("metrics: trailing input at %d in %q", p.pos, expr)
	}
	return node.eval(s, at)
}

// QueryNow evaluates expr at the store clock's current time.
func (s *Store) QueryNow(expr string) (float64, error) {
	return s.Query(expr, s.clk.Now())
}

type queryNode interface {
	eval(s *Store, at time.Time) (float64, error)
}

type numberNode float64

func (n numberNode) eval(*Store, time.Time) (float64, error) { return float64(n), nil }

type binaryNode struct {
	op          byte
	left, right queryNode
}

func (b *binaryNode) eval(s *Store, at time.Time) (float64, error) {
	l, err := b.left.eval(s, at)
	if err != nil {
		return 0, err
	}
	r, err := b.right.eval(s, at)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return math.NaN(), nil
		}
		return l / r, nil
	}
	return 0, fmt.Errorf("metrics: unknown operator %q", string(b.op))
}

type instantNode struct {
	name     string
	selector []LabelMatch
	agg      string // "", sum, avg, min, max, count
}

func (n *instantNode) eval(s *Store, at time.Time) (float64, error) {
	return s.InstantValue(n.name, n.selector, n.agg, at)
}

type rangeNode struct {
	fn       string // rate, increase, *_over_time, quantile_over_time
	q        float64
	name     string
	selector []LabelMatch
	window   time.Duration
}

func (n *rangeNode) eval(s *Store, at time.Time) (float64, error) {
	if !rangeFuncs[n.fn] {
		return 0, errUnknownRangeFn(n.fn)
	}
	return s.WindowAggregate(n.fn, n.q, n.name, n.selector, n.window, at)
}

var errZeroWindow = fmt.Errorf("metrics: zero range window")

func errUnknownRangeFn(fn string) error {
	return fmt.Errorf("metrics: unknown range function %q", fn)
}

// counterIncrease computes the increase of a counter over its samples,
// tolerating counter resets (any decrease starts a new segment, as in
// Prometheus).
func counterIncrease(samples []Sample) float64 {
	if len(samples) < 2 {
		return 0
	}
	var inc float64
	prev := samples[0].V
	for _, sm := range samples[1:] {
		if sm.V >= prev {
			inc += sm.V - prev
		} else {
			inc += sm.V // reset: count from zero
		}
		prev = sm.V
	}
	return inc
}

func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

var rangeFuncs = map[string]bool{
	"rate":               true,
	"increase":           true,
	"avg_over_time":      true,
	"min_over_time":      true,
	"max_over_time":      true,
	"sum_over_time":      true,
	"count_over_time":    true,
	"stddev_over_time":   true,
	"var_over_time":      true,
	"quantile_over_time": true,
}

var aggFuncs = map[string]bool{
	"sum": true, "avg": true, "min": true, "max": true, "count": true,
}

type queryParser struct {
	input string
	pos   int
}

func (p *queryParser) errf(format string, args ...any) error {
	return fmt.Errorf("metrics: query error at %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *queryParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}

func (p *queryParser) peek() byte {
	if p.pos < len(p.input) {
		return p.input[p.pos]
	}
	return 0
}

func (p *queryParser) consume(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

// parseExpr handles + and - (lowest precedence).
func (p *queryParser) parseExpr() (queryNode, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		c := p.peek()
		if c != '+' && c != '-' {
			return left, nil
		}
		p.pos++
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = &binaryNode{op: c, left: left, right: right}
	}
}

// parseTerm handles * and /.
func (p *queryParser) parseTerm() (queryNode, error) {
	left, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		c := p.peek()
		if c != '*' && c != '/' {
			return left, nil
		}
		p.pos++
		right, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		left = &binaryNode{op: c, left: left, right: right}
	}
}

func (p *queryParser) parseAtom() (queryNode, error) {
	p.skipSpace()
	c := p.peek()
	switch {
	case c == '(':
		p.pos++
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.consume(')'); err != nil {
			return nil, err
		}
		return inner, nil
	case c == '-' || c == '.' || (c >= '0' && c <= '9'):
		return p.parseNumber()
	case isIdentStart(c):
		return p.parseIdentExpr()
	default:
		return nil, p.errf("unexpected character %q", string(c))
	}
}

func (p *queryParser) parseNumber() (queryNode, error) {
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
			((c == '+' || c == '-') && p.pos > start && (p.input[p.pos-1] == 'e' || p.input[p.pos-1] == 'E')) {
			p.pos++
			continue
		}
		break
	}
	f, err := strconv.ParseFloat(p.input[start:p.pos], 64)
	if err != nil {
		return nil, p.errf("bad number %q", p.input[start:p.pos])
	}
	return numberNode(f), nil
}

func (p *queryParser) parseIdentExpr() (queryNode, error) {
	name := p.parseIdent()
	p.skipSpace()
	if p.peek() == '(' && (rangeFuncs[name] || aggFuncs[name]) {
		return p.parseCall(name)
	}
	return p.parseSelectorTail(name, "")
}

func (p *queryParser) parseCall(fn string) (queryNode, error) {
	if err := p.consume('('); err != nil {
		return nil, err
	}
	var q float64
	if fn == "quantile_over_time" {
		p.skipSpace()
		numNode, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		q = float64(numNode.(numberNode))
		if err := p.consume(','); err != nil {
			return nil, err
		}
	}
	p.skipSpace()
	if !isIdentStart(p.peek()) {
		return nil, p.errf("expected metric name in %s()", fn)
	}
	name := p.parseIdent()
	node, err := p.parseSelectorTail(name, fn)
	if err != nil {
		return nil, err
	}
	if rn, ok := node.(*rangeNode); ok {
		rn.q = q
		if !rangeFuncs[fn] {
			return nil, p.errf("%s() does not take a range selector", fn)
		}
	} else if in, ok := node.(*instantNode); ok {
		if rangeFuncs[fn] {
			return nil, p.errf("%s() requires a range selector like m[30s]", fn)
		}
		in.agg = fn
	}
	if err := p.consume(')'); err != nil {
		return nil, err
	}
	return node, nil
}

// parseSelectorTail parses the optional {selector} and [window] after a
// metric name; fn is the surrounding function, if any.
func (p *queryParser) parseSelectorTail(name, fn string) (queryNode, error) {
	var selector []LabelMatch
	p.skipSpace()
	if p.peek() == '{' {
		var err error
		selector, err = p.parseSelector()
		if err != nil {
			return nil, err
		}
	}
	p.skipSpace()
	if p.peek() == '[' {
		p.pos++
		start := p.pos
		for p.pos < len(p.input) && p.input[p.pos] != ']' {
			p.pos++
		}
		if p.pos >= len(p.input) {
			return nil, p.errf("unterminated range window")
		}
		d, err := time.ParseDuration(p.input[start:p.pos])
		if err != nil {
			return nil, p.errf("bad window %q: %v", p.input[start:p.pos], err)
		}
		p.pos++ // ']'
		return &rangeNode{fn: fn, name: name, selector: selector, window: d}, nil
	}
	return &instantNode{name: name, selector: selector}, nil
}

func (p *queryParser) parseSelector() ([]LabelMatch, error) {
	if err := p.consume('{'); err != nil {
		return nil, err
	}
	var out []LabelMatch
	p.skipSpace()
	if p.peek() == '}' {
		p.pos++
		return out, nil
	}
	for {
		p.skipSpace()
		if !isIdentStart(p.peek()) {
			return nil, p.errf("expected label name")
		}
		label := p.parseIdent()
		p.skipSpace()
		var op MatchOp
		switch {
		case strings.HasPrefix(p.input[p.pos:], "!="):
			op = MatchNotEqual
			p.pos += 2
		case strings.HasPrefix(p.input[p.pos:], "=~"):
			op = MatchPrefix
			p.pos += 2
		case p.peek() == '=':
			op = MatchEqual
			p.pos++
		default:
			return nil, p.errf("expected =, != or =~ after label %q", label)
		}
		p.skipSpace()
		if p.peek() != '"' {
			return nil, p.errf("expected quoted label value")
		}
		p.pos++
		start := p.pos
		for p.pos < len(p.input) && p.input[p.pos] != '"' {
			p.pos++
		}
		if p.pos >= len(p.input) {
			return nil, p.errf("unterminated label value")
		}
		out = append(out, LabelMatch{Name: label, Op: op, Value: p.input[start:p.pos]})
		p.pos++ // closing quote
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
			continue
		case '}':
			p.pos++
			return out, nil
		default:
			return nil, p.errf("expected ',' or '}' in selector")
		}
	}
}

func (p *queryParser) parseIdent() string {
	start := p.pos
	for p.pos < len(p.input) && isIdentPart(p.input[p.pos]) {
		p.pos++
	}
	return p.input[start:p.pos]
}

// ParseRangeSelector parses a bare range-vector selector such as
// `response_ms{version="candidate"}[30s]` into its metric name, label
// matches, and window. The moments API and the DSL's compare checks use
// it to address one population window.
func ParseRangeSelector(expr string) (name string, selector []LabelMatch, window time.Duration, err error) {
	p := &queryParser{input: expr}
	p.skipSpace()
	if !isIdentStart(p.peek()) {
		return "", nil, 0, p.errf("expected metric name in range selector %q", expr)
	}
	node, err := p.parseSelectorTail(p.parseIdent(), "")
	if err != nil {
		return "", nil, 0, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return "", nil, 0, p.errf("trailing input in range selector %q", expr)
	}
	rn, ok := node.(*rangeNode)
	if !ok {
		return "", nil, 0, fmt.Errorf("metrics: %q has no range window (expected m{...}[30s])", expr)
	}
	return rn.name, rn.selector, rn.window, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == ':'
}
