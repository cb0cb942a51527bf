package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/hybridsim"
)

// Cost extension (the authors' follow-up direction): price each hybrid
// configuration of the Figure-3 study, and provision cloud cores for a
// deadline at minimum cost.

// CostRow prices one (app, env) cell.
type CostRow struct {
	App      App
	Env      Env
	Makespan time.Duration
	Usage    costmodel.Usage
	Cost     costmodel.Cost
}

// RunCostTable prices every environment of one application under the given
// pricing.
func RunCostTable(app App, pricing costmodel.Pricing) ([]CostRow, error) {
	var rows []CostRow
	for _, env := range Envs {
		cfg := Config(app, env, SimOptions{})
		res, err := hybridsim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: cost %s/%s: %w", app, env, err)
		}
		usage := costmodel.Meter(cfg, res, siteCloud)
		cost, err := pricing.Price(usage)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CostRow{App: app, Env: env, Makespan: res.Total, Usage: usage, Cost: cost})
	}
	return rows, nil
}

// FormatCostTable renders the cost table for one app.
func FormatCostTable(rows []CostRow) string {
	var b strings.Builder
	if len(rows) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "Cost — %s: pay-as-you-go bill per environment (2011 AWS rates)\n", rows[0].App)
	fmt.Fprintf(&b, "%-10s %10s %8s %10s %10s %10s %10s\n",
		"env", "makespan", "cores", "out(GiB)", "in(GiB)", "GETs", "total $")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10.1fs %8d %10.2f %10.2f %10d %10.4f\n",
			strings.TrimPrefix(string(r.Env), "env-"), r.Makespan.Seconds(),
			r.Usage.CloudCores,
			float64(r.Usage.BytesOut)/(1<<30), float64(r.Usage.BytesIn)/(1<<30),
			r.Usage.Requests, r.Cost.Total())
	}
	return b.String()
}

// RunProvisioning searches for the cheapest cloud allocation that finishes
// an Env5050 run of app within the deadline, keeping 16 local cores fixed:
// the static baseline's nominal pass (runStatic without the slowdown) over
// a menu of cloud core counts.
func RunProvisioning(app App, pricing costmodel.Pricing, deadline time.Duration) (*costmodel.Plan, error) {
	plan := &costmodel.Plan{}
	for _, cores := range []int{4, 8, 16, 22, 32, 44, 64} {
		c, err := runStatic(app, pricing, cores, ElasticOptions{}, false)
		if err != nil {
			return nil, err
		}
		plan.Candidates = append(plan.Candidates, c)
		if c.Makespan <= deadline && (plan.Chosen == nil || c.Cost.Total() < plan.Chosen.Cost.Total()) {
			chosen := c
			plan.Chosen = &chosen
		}
	}
	return plan, nil
}
