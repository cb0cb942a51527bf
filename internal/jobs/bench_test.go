package jobs

import (
	"testing"

	"repro/internal/chunk"
)

// Scheduling-path micro-benchmarks: the head's assignment and completion
// operations sit on the master request path, so their cost bounds how small
// job groups can get before control overhead dominates.

func benchPool(b *testing.B, opts Options) *Pool {
	b.Helper()
	ix, err := chunk.Layout("bench", 96_000, 8, 3000, 100) // 960 chunks, 32 files
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPool(ix, SplitByFraction(len(ix.Files), 0.5, 0, 1), opts)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkPoolAssignComplete(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := benchPool(b, Options{})
		b.StartTimer()
		site := 0
		for {
			js := p.Assign(site, 8)
			if len(js) == 0 {
				break
			}
			for _, j := range js {
				if _, err := p.Commit(site, j); err != nil {
					b.Fatal(err)
				}
			}
			site = 1 - site
		}
	}
}

func BenchmarkPoolStealMinContention(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := benchPool(b, Options{})
		p.Assign(0, 480) // exactly site 0's local jobs: no stealing yet
		b.StartTimer()
		for {
			js := p.Assign(0, 8) // every grant is a steal decision
			if len(js) == 0 {
				break
			}
		}
	}
}

func BenchmarkPoolStealRoundRobin(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := benchPool(b, Options{Steal: StealRoundRobin})
		p.Assign(0, 480) // exactly site 0's local jobs: no stealing yet
		b.StartTimer()
		for {
			js := p.Assign(0, 8)
			if len(js) == 0 {
				break
			}
		}
	}
}
