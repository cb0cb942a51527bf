package fault

import (
	"reflect"
	"testing"
)

// FuzzParsePlan feeds arbitrary text to the plan parser. Whatever it
// accepts must survive its own rendering: ParsePlan of Plan.String gives an
// equal plan, so a plan written to a file or a flag reads back as the plan
// that ran. Run with
//
//	go test -fuzz=FuzzParsePlan ./internal/fault
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"",
		"# a drill\nat=30s site=1 kind=crash\n\nat=10s site=0 kind=crash\n",
		"plan restart=10s checkpoint=100 lease=5s speculate=20s\nat=10s site=0 kind=slowdown factor=4\n",
		"at=50s site=1 worker=2 kind=partition\nat=60s site=1 kind=recover\n",
		"plan lease=0s\nat=1ms site=3 kind=crash worker=1\n",
		// Once accepted and then lost in the rendering: a factor on a
		// non-slowdown event, a NaN factor, a negative parameter.
		"factor=10",
		"at=1s site=0 kind=slowdown factor=NaN",
		"plan restart=-1s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParsePlan(text)
		if err != nil {
			return
		}
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) = %#v renders as %q, which does not parse: %v", text, p, p.String(), err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("ParsePlan(%q) = %#v renders as %q, which parses as %#v", text, p, p.String(), again)
		}
	})
}
