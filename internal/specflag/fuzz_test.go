package specflag

import "testing"

// FuzzSpecRoundTrip fuzzes both spec grammars with one input: Parse
// never panics, and every value Parse accepts renders back to a spec
// that parses to the same value. A value whose fields are all zero
// renders as the empty string, which is not a spec; it is not reparsed.
//
// The committed seed corpus lives in testdata/fuzz/FuzzSpecRoundTrip
// and runs with the ordinary tests; CI also fuzzes for a short fixed
// time:
//
//	go test -run '^$' -fuzz '^FuzzSpecRoundTrip$' -fuzztime=10s ./internal/specflag/
func FuzzSpecRoundTrip(f *testing.F) {
	f.Add("name=web,deadline=20,rate=300")
	f.Add("platform=a40,count=2,replicas=2")
	tenant, node := Tenant(), Node()
	f.Fuzz(func(t *testing.T, spec string) {
		roundTrip(t, tenant, spec)
		roundTrip(t, node, spec)
	})
}

func roundTrip[T comparable](t *testing.T, p *Parser[T], spec string) {
	v, err := p.Parse(spec)
	if err != nil {
		return
	}
	s := p.String(v)
	if s == "" {
		return
	}
	back, err := p.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q) = %+v renders %q, which fails to parse: %v", spec, v, s, err)
	}
	if back != v {
		t.Fatalf("Parse(%q) = %+v renders %q, which parses to %+v", spec, v, s, back)
	}
}
