// Package metrics implements the monitoring substrate Bifrost's engine
// queries for its runtime decisions: a small Prometheus-like time-series
// store, an instrumentation registry with text exposition, a scraper, an
// HTTP query API, a query-expression language, and the check "validator"
// expressions from the DSL (e.g. "<5").
//
// Each series keeps, next to its bounded ring of raw samples, a ring of
// pre-aggregated bucket summaries (summary.go); windowed queries — rate,
// increase, the *_over_time family — combine whole buckets and touch raw
// samples only at the window edges, and wide-window quantiles stream
// through a sketch. The store also answers moments queries
// (count/mean/variance of a population window, store and HTTP API), the
// raw material of the DSL's statistical compare checks.
//
// The paper's prototype is "primarily built for Prometheus" (§4.2.2); this
// package is the standard-library-only stand-in, serving the same queries
// over the same kind of scraped counters and gauges.
package metrics

import (
	"sort"
	"strings"
)

// Labels is a set of label name/value pairs identifying a series, e.g.
// {instance="search:80"}.
type Labels map[string]string

// Clone returns a copy of the label set.
func (l Labels) Clone() Labels {
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Merge returns a copy of l with the entries of extra added (extra wins).
func (l Labels) Merge(extra Labels) Labels {
	out := l.Clone()
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// Key renders a canonical, order-independent key for the label set.
func (l Labels) Key() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(l[k])
	}
	return b.String()
}

// String renders the label set in Prometheus selector syntax.
func (l Labels) String() string {
	if len(l) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(l[k])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Matches reports whether the series labels satisfy every requirement in
// the selector (subset semantics, as in Prometheus).
func (l Labels) Matches(selector []LabelMatch) bool {
	for _, m := range selector {
		v, ok := l[m.Name]
		switch m.Op {
		case MatchEqual:
			if !ok || v != m.Value {
				return false
			}
		case MatchNotEqual:
			if ok && v == m.Value {
				return false
			}
		case MatchPrefix:
			if !ok || !strings.HasPrefix(v, m.Value) {
				return false
			}
		}
	}
	return true
}

// MatchOp is a label matching operator.
type MatchOp int

// Label matching operators supported in selectors.
const (
	MatchEqual    MatchOp = iota + 1 // label="value"
	MatchNotEqual                    // label!="value"
	MatchPrefix                      // label=~"prefix" (prefix match only)
)

// LabelMatch is one requirement inside a selector.
type LabelMatch struct {
	Name  string
	Op    MatchOp
	Value string
}
