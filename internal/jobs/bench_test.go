package jobs

import (
	"runtime"
	"testing"
	"time"

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

// BenchmarkFairShareAssign drains three 8 192-job pools (16 files of 512
// jobs, split between two sites) through one FairShare, four jobs per ask
// on alternating sites: the head's grant path. It reports the cost per
// granted job.
func BenchmarkFairShareAssign(b *testing.B) {
	ix, err := chunk.Layout("fair", 8192, 4096, 512, 1)
	if err != nil {
		b.Fatal(err)
	}
	placement := SplitByFraction(len(ix.Files), 0.5, 0, 1)
	var grants, mallocs uint64
	var elapsed time.Duration
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := NewFairShare()
		for q := 0; q < 3; q++ {
			p, err := NewPool(ix, placement, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Add(q, p, 1); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		before, start := ms.Mallocs, time.Now()
		b.StartTimer()
		for site := 0; ; site = 1 - site {
			got := f.Assign(site, 4)
			if len(got) == 0 {
				break
			}
			grants += uint64(len(got))
		}
		b.StopTimer()
		elapsed += time.Since(start)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(grants), "ns/grant")
	b.ReportMetric(float64(mallocs)/float64(grants), "allocs/grant")
}
