// Package costmodel prices cloud-bursting runs — the extension direction the
// paper's authors pursued next ("Time and Cost Sensitive Data-Intensive
// Computing on Hybrid Clouds"). Every simulated run, static or elastic, is
// metered by one function (Meter) into one Usage record and priced by one
// bill (Pricing.Price): instance time, object-store requests, and
// cross-boundary data transfer. Instance time is rounded to the billing
// quantum in one place (Pricing.InstanceCost), which the elastic arbiter's
// per-episode bill calls too. Storage is not billed: a dataset's storage is
// paid per month whether or not a run happens.
package costmodel

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/hybridsim"
)

// Pricing captures a pay-as-you-go provider's rates. DefaultPricing2011
// reflects AWS us-east at the time of the paper.
type Pricing struct {
	// InstancePerHour is the on-demand price of one instance.
	InstancePerHour float64
	// CoresPerInstance maps cores to instances (m1.large: 2 virtual cores).
	CoresPerInstance int
	// BillingQuantum rounds usage up (classic EC2: whole hours).
	BillingQuantum time.Duration
	// TransferOutPerGB prices data leaving the cloud (S3 → campus).
	TransferOutPerGB float64
	// TransferInPerGB prices data entering the cloud (usually 0 or cheap).
	TransferInPerGB float64
	// RequestPer10K prices object-store requests (GETs and PUTs).
	RequestPer10K float64
}

// DefaultPricing2011 is Amazon's 2011-era us-east pricing: m1.large at
// $0.34/h (whole-hour billing), $0.12/GB out, $0.10/GB in, $0.01 per 10k
// GETs.
func DefaultPricing2011() Pricing {
	return Pricing{
		InstancePerHour:  0.34,
		CoresPerInstance: 2,
		BillingQuantum:   time.Hour,
		TransferOutPerGB: 0.12,
		TransferInPerGB:  0.10,
		RequestPer10K:    0.01,
	}
}

// DefaultPricingCurrent is current-generation on-demand pricing (c-family
// compute instances, us-east): per-SECOND billing, $0.17/h for a 2-vCPU
// instance, $0.09/GB out with free ingress, $0.004 per 10k GETs. The
// headline difference from DefaultPricing2011 for elastic scale-down is the
// billing quantum: with per-second billing a drained worker stops costing
// money immediately, so the arbiter decommissions far more aggressively
// than under whole-hour billing, where a worker's remaining paid-for hour
// is free to keep.
func DefaultPricingCurrent() Pricing {
	return Pricing{
		InstancePerHour:  0.17,
		CoresPerInstance: 2,
		BillingQuantum:   time.Second,
		TransferOutPerGB: 0.09,
		TransferInPerGB:  0,
		RequestPer10K:    0.004,
	}
}

// Validate checks the pricing structure.
func (p Pricing) Validate() error {
	if p.CoresPerInstance <= 0 {
		return fmt.Errorf("costmodel: CoresPerInstance must be positive, got %d", p.CoresPerInstance)
	}
	if p.InstancePerHour < 0 || p.TransferOutPerGB < 0 || p.TransferInPerGB < 0 || p.RequestPer10K < 0 {
		return fmt.Errorf("costmodel: negative rates")
	}
	return nil
}

// InstanceCost bills cores of compute held for d: whole instances, each
// billed for d rounded up to the billing quantum — at least one quantum,
// since an instance that started bills once. Quantum 0 bills continuously.
func (p Pricing) InstanceCost(cores int, d time.Duration) float64 {
	instances := (cores + p.CoresPerInstance - 1) / p.CoresPerInstance
	if q := p.BillingQuantum; q > 0 {
		if d <= 0 {
			d = q
		} else {
			d = (d + q - 1) / q * q
		}
	}
	return float64(instances) * d.Hours() * p.InstancePerHour
}

// Usage is the billable footprint of one run's cloud side.
type Usage struct {
	// CloudCores and Makespan determine instance-hours.
	CloudCores int
	Makespan   time.Duration
	// BytesOut counts data that left the cloud boundary: S3 chunks stolen
	// by the local cluster plus the cloud's reduction object.
	BytesOut int64
	// BytesIn counts data that entered the cloud: chunks the cloud stole
	// from the local cluster's storage.
	BytesIn int64
	// Requests counts object-store GETs and PUTs.
	Requests int64
}

// Meter derives the Usage of a finished simulated run. A cluster is in the
// cloud when it is a burst worker or sits at cloudSite. Static in-cloud
// clusters hold CloudCores for the whole makespan; burst workers are billed
// per launch episode by the arbiter that launched them, so they add no
// cores here. Bytes outside clusters pull from cloudSite leave the cloud;
// bytes in-cloud clusters pull from any other site enter it. Every chunk
// fetched from cloudSite or from the burst-side replica is one request
// (bytes ÷ the dataset's mean chunk), and every pre-staged chunk is one PUT.
// An in-cloud cluster's reduction object crosses out to the head unless it
// is the head's own cluster. The chunk size and the object size are the
// first query's, so cfg carries one query.
func Meter(cfg hybridsim.Config, res *hybridsim.Result, cloudSite int) Usage {
	u := Usage{Makespan: res.Total}
	q := cfg.Queries[0]
	var meanChunk int64
	if n := int64(q.Index.NumChunks()); n > 0 {
		meanChunk = q.Index.TotalBytes() / n
	}
	gets := func(n int64) int64 {
		if meanChunk <= 0 {
			return 0
		}
		return (n + meanChunk - 1) / meanChunk
	}
	for ci, c := range res.Clusters {
		if c.Burst || c.Site == cloudSite {
			if !c.Burst {
				u.CloudCores += c.Cores
			}
			for site, n := range c.BytesBySite {
				if site == cloudSite {
					u.Requests += gets(n)
				} else {
					u.BytesIn += n
				}
			}
			u.Requests += gets(c.StageReadBytes)
			if ci != cfg.Topology.HeadCluster {
				u.BytesOut += q.App.RobjBytes
			}
		} else if n, ok := c.BytesBySite[cloudSite]; ok {
			u.BytesOut += n
			u.Requests += gets(n)
		}
	}
	if st := res.Stage; st != nil {
		for site, n := range st.PrestagedBySite {
			if site != cloudSite {
				u.BytesIn += n
			}
		}
		u.Requests += int64(st.PrestagedChunks)
	}
	return u
}

// Cost is an itemized bill.
type Cost struct {
	Instances float64
	Transfer  float64
	Requests  float64
}

// Total sums the items.
func (c Cost) Total() float64 { return c.Instances + c.Transfer + c.Requests }

// String renders the bill.
func (c Cost) String() string {
	return fmt.Sprintf("$%.4f (instances $%.4f, transfer $%.4f, requests $%.4f)",
		c.Total(), c.Instances, c.Transfer, c.Requests)
}

const gb = 1 << 30

// Price computes the bill for a usage footprint.
func (p Pricing) Price(u Usage) (Cost, error) {
	if err := p.Validate(); err != nil {
		return Cost{}, err
	}
	return Cost{
		Instances: p.InstanceCost(u.CloudCores, u.Makespan),
		Transfer:  float64(u.BytesOut)/gb*p.TransferOutPerGB + float64(u.BytesIn)/gb*p.TransferInPerGB,
		Requests:  float64(u.Requests) / 10_000 * p.RequestPer10K,
	}, nil
}

// ---------------------------------------------------------------------------
// Deadline-driven provisioning.

// Candidate is one provisioning option: run the job with the given cloud
// core count, costing Cost and finishing in Makespan.
type Candidate struct {
	CloudCores int
	Makespan   time.Duration
	Cost       Cost
}

// Plan is the result of a provisioning search.
type Plan struct {
	// Chosen is the cheapest candidate meeting the deadline; nil when none
	// does.
	Chosen *Candidate
	// Candidates lists every evaluated option, sorted by cloud cores.
	Candidates []Candidate
}

// Format renders the provisioning table.
func (pl *Plan) Format(deadline time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Provisioning for deadline %v\n", deadline)
	fmt.Fprintf(&b, "%-12s %12s %12s %8s\n", "cloud cores", "makespan", "cost", "meets?")
	for _, c := range pl.Candidates {
		meets := ""
		if c.Makespan <= deadline {
			meets = "yes"
		}
		mark := ""
		if pl.Chosen != nil && c.CloudCores == pl.Chosen.CloudCores {
			mark = "  ← chosen"
		}
		line := fmt.Sprintf("%-12d %12s %12.4f %8s%s",
			c.CloudCores, c.Makespan.Round(time.Millisecond), c.Cost.Total(), meets, mark)
		fmt.Fprintln(&b, strings.TrimRight(line, " "))
	}
	if pl.Chosen == nil {
		fmt.Fprintln(&b, "no candidate meets the deadline")
	}
	return b.String()
}
