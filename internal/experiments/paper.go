package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/costmodel"
)

// FormatHeadline renders the paper's two summary numbers with the per-app
// slowdowns and scaling efficiencies behind them.
func FormatHeadline(h *Headline, fig3s []*Fig3Result, fig4s []*Fig4Result) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Headline numbers (paper: 15.55% avg slowdown, 81% avg scaling)")
	fmt.Fprintf(&b, "  average hybrid slowdown over %d app×env cells: %.2f%%\n",
		len(fig3s)*len(HybridEnvs), h.AvgSlowdownPct)
	fmt.Fprintf(&b, "  average per-doubling scaling efficiency:       %.1f%%\n", h.AvgEfficiencyPct)
	for i, f3 := range fig3s {
		fmt.Fprintf(&b, "  %-8s slowdowns:", f3.App)
		for _, env := range HybridEnvs {
			fmt.Fprintf(&b, " %s=%+.1f%%", env, 100*f3.Slowdown(env))
		}
		fmt.Fprintf(&b, "  efficiencies:")
		for _, e := range fig4s[i].Efficiency() {
			fmt.Fprintf(&b, " %.1f%%", 100*e)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// WritePaperTables renders every simulated section of `cloudburst all` for
// apps, in its order: per app Figure 3, Tables I and II and Figure 4; the
// headline; the ablations; per app the estimate validation and the cost
// table. Figure 1 is the one section left out — it times the real engines,
// so it is not deterministic. results_all.txt is Figure 1 followed by
// exactly this output.
func WritePaperTables(w io.Writer, apps []App) error {
	var b strings.Builder
	for _, app := range apps {
		f3, err := RunFig3(app)
		if err != nil {
			return err
		}
		f4, err := RunFig4(app)
		if err != nil {
			return err
		}
		for _, s := range []string{f3.FormatFig3(), f3.FormatTable1(), f3.FormatTable2(), f4.FormatFig4()} {
			fmt.Fprintln(&b, s)
		}
	}
	h, fig3s, fig4s, err := RunHeadline()
	if err != nil {
		return err
	}
	b.WriteString(FormatHeadline(h, fig3s, fig4s))
	ablations, err := RunAblations()
	if err != nil {
		return err
	}
	fmt.Fprintln(&b, ablations)
	for _, app := range apps {
		rows, err := RunEstimateValidation(app)
		if err != nil {
			return err
		}
		costs, err := RunCostTable(app, costmodel.DefaultPricing2011())
		if err != nil {
			return err
		}
		fmt.Fprintln(&b, FormatEstimateTable(rows))
		fmt.Fprintln(&b, FormatCostTable(costs))
	}
	_, err = io.WriteString(w, b.String())
	return err
}
