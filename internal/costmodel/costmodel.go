// Package costmodel prices cloud-bursting runs and provisions cloud
// resources under deadlines — the extension direction the paper's authors
// pursued next ("Time and Cost Sensitive Data-Intensive Computing on Hybrid
// Clouds"). Given a simulated (or measured) run, it computes the dollar
// cost of the cloud side: instance-hours, object-store requests, and
// cross-boundary data transfer; given a deadline, it searches for the
// cheapest cloud allocation that meets it.
package costmodel

import (
	"fmt"
	"math"
	"sort"
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
	// RequestPer10K prices object-store GET requests.
	RequestPer10K float64
	// StoragePerGBMonth prices keeping the dataset in the object store.
	StoragePerGBMonth float64
}

// DefaultPricing2011 is Amazon's 2011-era us-east pricing: m1.large at
// $0.34/h (whole-hour billing), $0.12/GB out, $0.10/GB in, $0.01 per 10k
// GETs, $0.14/GB-month in S3.
func DefaultPricing2011() Pricing {
	return Pricing{
		InstancePerHour:   0.34,
		CoresPerInstance:  2,
		BillingQuantum:    time.Hour,
		TransferOutPerGB:  0.12,
		TransferInPerGB:   0.10,
		RequestPer10K:     0.01,
		StoragePerGBMonth: 0.14,
	}
}

// DefaultPricingCurrent is current-generation on-demand pricing (c-family
// compute instances, us-east): per-SECOND billing, $0.17/h for a 2-vCPU
// instance, $0.09/GB out with free ingress, $0.004 per 10k GETs,
// $0.023/GB-month standard object storage. The headline difference from
// DefaultPricing2011 for elastic scale-down is the billing quantum: with
// per-second billing a drained worker stops costing money immediately, so
// the arbiter decommissions far more aggressively than under whole-hour
// billing, where a worker's remaining paid-for hour is free to keep.
func DefaultPricingCurrent() Pricing {
	return Pricing{
		InstancePerHour:   0.17,
		CoresPerInstance:  2,
		BillingQuantum:    time.Second,
		TransferOutPerGB:  0.09,
		TransferInPerGB:   0,
		RequestPer10K:     0.004,
		StoragePerGBMonth: 0.023,
	}
}

// Validate checks the pricing structure.
func (p Pricing) Validate() error {
	if p.CoresPerInstance <= 0 {
		return fmt.Errorf("costmodel: CoresPerInstance must be positive, got %d", p.CoresPerInstance)
	}
	if p.InstancePerHour < 0 || p.TransferOutPerGB < 0 || p.TransferInPerGB < 0 ||
		p.RequestPer10K < 0 || p.StoragePerGBMonth < 0 {
		return fmt.Errorf("costmodel: negative rates")
	}
	return nil
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
	// Requests counts object-store GETs (≈ jobs retrieved from S3).
	Requests int64
	// StoredBytes is the dataset fraction resident in the object store.
	StoredBytes int64
	// StorageDuration is how long it stays there (defaults to the run).
	StorageDuration time.Duration
}

// UsageFromSim derives Usage from a simulated run. cloudSite is the storage
// site that lives inside the cloud boundary; cloudClusters lists the
// cluster indices that run on cloud instances. robjBytes is the reduction
// object the cloud ships to the head (0 if the head is in the cloud).
func UsageFromSim(res *hybridsim.Result, cfg hybridsim.Config, cloudSite int, cloudClusters ...int) Usage {
	inCloud := make(map[int]bool, len(cloudClusters))
	for _, ci := range cloudClusters {
		inCloud[ci] = true
	}
	var u Usage
	u.Makespan = res.Total
	for ci, c := range res.Clusters {
		if inCloud[ci] {
			u.CloudCores += c.Cores
			// Data pulled from outside the cloud into cloud instances.
			for site, n := range c.BytesBySite {
				if site != cloudSite {
					u.BytesIn += n
				}
			}
			if ci != cfg.Topology.HeadCluster {
				u.BytesOut += cfg.App.RobjBytes // robj crosses out to the head
			}
		} else {
			// Data pulled out of the cloud by outside clusters.
			if n, ok := c.BytesBySite[cloudSite]; ok {
				u.BytesOut += n
				// Requests ≈ stolen chunks fetched from the store.
				u.Requests += int64(c.Jobs.Stolen)
			}
		}
		if inCloud[ci] {
			// The cloud cluster's own S3 reads are in-region requests.
			if _, ok := c.BytesBySite[cloudSite]; ok {
				u.Requests += int64(c.Jobs.Local)
			}
		}
	}
	for fi, site := range cfg.Placement {
		if site == cloudSite {
			u.StoredBytes += cfg.Index.Files[fi].Size
		}
	}
	u.StorageDuration = res.Total
	return u
}

// Cost is an itemized bill.
type Cost struct {
	Instances float64
	Transfer  float64
	Requests  float64
	Storage   float64
}

// Total sums the items.
func (c Cost) Total() float64 { return c.Instances + c.Transfer + c.Requests + c.Storage }

// String renders the bill.
func (c Cost) String() string {
	return fmt.Sprintf("$%.4f (instances $%.4f, transfer $%.4f, requests $%.4f, storage $%.4f)",
		c.Total(), c.Instances, c.Transfer, c.Requests, c.Storage)
}

const gb = 1 << 30

// Price computes the bill for a usage footprint.
func (p Pricing) Price(u Usage) (Cost, error) {
	if err := p.Validate(); err != nil {
		return Cost{}, err
	}
	var c Cost
	instances := (u.CloudCores + p.CoresPerInstance - 1) / p.CoresPerInstance
	billed := u.Makespan
	if p.BillingQuantum > 0 && billed > 0 {
		q := p.BillingQuantum
		billed = time.Duration(math.Ceil(float64(billed)/float64(q))) * q
	}
	c.Instances = float64(instances) * billed.Hours() * p.InstancePerHour
	c.Transfer = float64(u.BytesOut)/gb*p.TransferOutPerGB + float64(u.BytesIn)/gb*p.TransferInPerGB
	c.Requests = float64(u.Requests) / 10_000 * p.RequestPer10K
	c.Storage = float64(u.StoredBytes) / gb * p.StoragePerGBMonth * (u.StorageDuration.Hours() / (30 * 24))
	return c, nil
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

// Provision sweeps cloud core counts (the offered instance sizes) and
// returns the cheapest allocation whose simulated makespan meets the
// deadline. build must return the experiment configuration for a given
// cloud core count; cloudSite/cloudClusters identify the cloud boundary as
// in UsageFromSim.
func Provision(p Pricing, deadline time.Duration, coreOptions []int,
	build func(cloudCores int) hybridsim.Config, cloudSite int, cloudClusters ...int) (*Plan, error) {
	if len(coreOptions) == 0 {
		return nil, fmt.Errorf("costmodel: no core options")
	}
	opts := append([]int(nil), coreOptions...)
	sort.Ints(opts)
	plan := &Plan{}
	for _, cores := range opts {
		cfg := build(cores)
		res, err := hybridsim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("costmodel: simulating %d cores: %w", cores, err)
		}
		usage := UsageFromSim(res, cfg, cloudSite, cloudClusters...)
		cost, err := p.Price(usage)
		if err != nil {
			return nil, err
		}
		cand := Candidate{CloudCores: cores, Makespan: res.Total, Cost: cost}
		plan.Candidates = append(plan.Candidates, cand)
		if res.Total <= deadline {
			if plan.Chosen == nil || cand.Cost.Total() < plan.Chosen.Cost.Total() {
				chosen := cand
				plan.Chosen = &chosen
			}
		}
	}
	return plan, nil
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
		fmt.Fprintf(&b, "%-12d %12s %12.4f %8s%s\n",
			c.CloudCores, c.Makespan.Round(time.Millisecond), c.Cost.Total(), meets, mark)
	}
	if pl.Chosen == nil {
		fmt.Fprintln(&b, "no candidate meets the deadline")
	}
	return b.String()
}
