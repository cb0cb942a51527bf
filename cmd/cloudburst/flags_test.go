package main

import (
	"math"
	"slices"
	"testing"

	"repro/internal/experiments"
)

// FuzzQueryFlag feeds arbitrary text to the -query flag. Set either refuses
// it and appends nothing, or appends one query whose app is one the
// experiments know (or empty: the base deployment's app), whose weight is at
// least 1, and whose policy, if any, passes Validate and has a finite
// budget. Run with
//
//	go test -fuzz=FuzzQueryFlag ./cmd/cloudburst
func FuzzQueryFlag(f *testing.F) {
	for _, s := range []string{
		"app=knn,deadline=120s,budget=0.10",
		"app=kmeans,weight=2",
		"app=pagerank,name=pr,min=1,max=4",
		"budget=NaN", // once accepted, and read as no budget at all
		"app=knn,budget=+Inf",
		"app=knn,min=5,max=4",
		"weight=0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var q queryFlags
		if err := q.Set(s); err != nil {
			if len(q) != 0 {
				t.Fatalf("Set(%q) failed with %v but appended %+v", s, err, q)
			}
			return
		}
		if len(q) != 1 {
			t.Fatalf("Set(%q) appended %d queries", s, len(q))
		}
		mq := q[0]
		if mq.App != "" && !slices.Contains(experiments.Apps, mq.App) {
			t.Errorf("Set(%q): unknown app %q", s, mq.App)
		}
		if mq.Weight < 1 {
			t.Errorf("Set(%q): weight %d", s, mq.Weight)
		}
		if mq.Policy != nil {
			if err := mq.Policy.Validate(); err != nil {
				t.Errorf("Set(%q): policy %+v fails Validate: %v", s, *mq.Policy, err)
			}
			if b := mq.Policy.Budget; math.IsNaN(b) || math.IsInf(b, 0) {
				t.Errorf("Set(%q): budget %g would lift the session's budget cap", s, b)
			}
		}
	})
}
