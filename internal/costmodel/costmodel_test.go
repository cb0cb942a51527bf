package costmodel

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/hybridsim"
	"repro/internal/jobs"
)

func TestPricingValidate(t *testing.T) {
	p := DefaultPricing2011()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.CoresPerInstance = 0
	if err := p.Validate(); err == nil {
		t.Error("zero cores/instance accepted")
	}
	p = DefaultPricing2011()
	p.TransferOutPerGB = -1
	if err := p.Validate(); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestPriceArithmetic(t *testing.T) {
	p := Pricing{
		InstancePerHour:  1.0,
		CoresPerInstance: 2,
		BillingQuantum:   time.Hour,
		TransferOutPerGB: 0.10,
		TransferInPerGB:  0.05,
		RequestPer10K:    0.01,
	}
	u := Usage{
		CloudCores: 5, // ⇒ 3 instances
		Makespan:   90 * time.Minute,
		BytesOut:   2 << 30, // 2 GiB out → $0.20
		BytesIn:    4 << 30, // 4 GiB in  → $0.20
		Requests:   20_000,  // → $0.02
	}
	c, err := p.Price(u)
	if err != nil {
		t.Fatal(err)
	}
	// 3 instances × 2 billed hours × $1 = $6.
	if c.Instances != 6 {
		t.Errorf("Instances = %v, want 6", c.Instances)
	}
	if diff := c.Transfer - 0.40; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Transfer = %v, want 0.40", c.Transfer)
	}
	if diff := c.Requests - 0.02; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Requests = %v, want 0.02", c.Requests)
	}
	if got, want := c.Total(), 6.42; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Total = %v, want %v", got, want)
	}
	if !strings.Contains(c.String(), "$6.4200") {
		t.Errorf("String = %q", c.String())
	}
}

func TestBillingQuantumRoundsUp(t *testing.T) {
	p := DefaultPricing2011()
	u := Usage{CloudCores: 2, Makespan: time.Minute}
	c, err := p.Price(u)
	if err != nil {
		t.Fatal(err)
	}
	// One instance, one minute of work, billed a whole hour.
	if got, want := c.Instances, 0.34; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Instances = %v, want %v", got, want)
	}
	// No quantum: exact duration.
	p.BillingQuantum = 0
	c, err = p.Price(u)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Instances, 0.34/60; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("unquantized Instances = %v, want %v", got, want)
	}
}

// simSetup builds a small two-cluster config for usage/provisioning tests.
func simSetup(t *testing.T, cloudCores int) hybridsim.Config {
	t.Helper()
	ix, err := chunk.Layout("c", 32*1024, 1024, 4*1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return hybridsim.Config{
		Queries: []hybridsim.Query{{
			Name:      "t",
			Index:     ix,
			Placement: jobs.SplitByFraction(len(ix.Files), 0.5, 0, 1),
			App: hybridsim.AppModel{
				Name:               "t",
				ComputeBytesPerSec: 1 << 20,
				RobjBytes:          1 << 20,
				MergeBytesPerSec:   1 << 30,
			},
		}},
		Topology: hybridsim.Topology{
			Clusters: []hybridsim.ClusterModel{
				{Name: "local", Site: 0, Cores: 2, RetrievalThreads: 2},
				{Name: "cloud", Site: 1, Cores: cloudCores, RetrievalThreads: 2},
			},
			SourceEgress:          map[int]float64{0: 100 << 20, 1: 100 << 20},
			InterClusterBandwidth: 10 << 20,
			HeadCluster:           0,
		},
	}
}

// TestInstanceCost: whole instances, each billed for the duration rounded
// up to the quantum, and at least one quantum.
func TestInstanceCost(t *testing.T) {
	p := Pricing{InstancePerHour: 1.0, CoresPerInstance: 2, BillingQuantum: time.Hour}
	continuous := p
	continuous.BillingQuantum = 0
	for _, tc := range []struct {
		name  string
		p     Pricing
		cores int
		d     time.Duration
		want  float64
	}{
		{"zero duration bills one quantum", p, 2, 0, 1},
		{"negative duration bills one quantum", p, 2, -time.Minute, 1},
		{"partial quantum rounds up", p, 2, time.Minute, 1},
		{"exact multiple is not rounded", p, 2, 2 * time.Hour, 2},
		{"just past a multiple bills the next", p, 2, 2*time.Hour + time.Nanosecond, 3},
		{"quantum 0 bills continuously", continuous, 2, 90 * time.Minute, 1.5},
		{"3 cores on 2-core instances are 2 instances", p, 3, 90 * time.Minute, 4},
		{"no cores bill nothing", p, 0, time.Hour, 0},
	} {
		if got := tc.p.InstanceCost(tc.cores, tc.d); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: InstanceCost(%d, %v) = %v, want %v", tc.name, tc.cores, tc.d, got, tc.want)
		}
	}
}

func TestMeter(t *testing.T) {
	cfg := simSetup(t, 2)
	res, err := hybridsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := Meter(cfg, res, 1)
	if u.CloudCores != 2 {
		t.Errorf("CloudCores = %d", u.CloudCores)
	}
	if u.Makespan != res.Total {
		t.Errorf("Makespan = %v, want %v", u.Makespan, res.Total)
	}
	// The cloud cluster ships its robj out (head is cluster 0).
	if u.BytesOut < cfg.Queries[0].App.RobjBytes {
		t.Errorf("BytesOut = %d, want ≥ robj %d", u.BytesOut, cfg.Queries[0].App.RobjBytes)
	}
	// Every chunk read from the cloud site is one GET: the 16 chunks of the
	// cloud-hosted half, whoever read them.
	if want := int64(cfg.Queries[0].Index.NumChunks() / 2); u.Requests != want {
		t.Errorf("Requests = %d, want %d", u.Requests, want)
	}
	// With the head in the cloud, the cloud cluster's object never leaves.
	cfg.Topology.HeadCluster = 1
	if res, err = hybridsim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	var stolenFromCloud int64
	if n, ok := res.Clusters[0].BytesBySite[1]; ok {
		stolenFromCloud = n
	}
	if u := Meter(cfg, res, 1); u.BytesOut != stolenFromCloud {
		t.Errorf("head in the cloud: BytesOut = %d, want only the %d stolen bytes", u.BytesOut, stolenFromCloud)
	}
}
