package experiments_test

import (
	"fmt"
	"log"
	"time"

	"repro/internal/costmodel"
	"repro/internal/experiments"
)

// The operational question behind cloud bursting: "my local 16 cores are
// busy and I need this kmeans job done by a deadline — how many cloud cores
// should I rent, and what will it cost?" RunProvisioning simulates each
// pre-committed allocation on the nominal model, prices it with the one
// meter under 2011 AWS rates, and picks the cheapest that meets the
// deadline — what `cloudburst provision` prints.
func ExampleRunProvisioning() {
	pricing := costmodel.DefaultPricing2011()
	for _, deadline := range []time.Duration{240 * time.Second, 150 * time.Second, 100 * time.Second} {
		plan, err := experiments.RunProvisioning(experiments.KMeans, pricing, deadline)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(plan.Format(deadline))
		if plan.Chosen != nil {
			fmt.Printf("→ rent %d cloud cores: finishes in %v for %s\n",
				plan.Chosen.CloudCores, plan.Chosen.Makespan.Round(time.Second), plan.Chosen.Cost)
		} else {
			fmt.Println("→ no allocation meets this deadline; the local data path is the bottleneck")
		}
	}
	// Output:
	// Provisioning for deadline 4m0s
	// cloud cores      makespan         cost   meets?
	// 4               3m51.532s       1.1664      yes  ← chosen
	// 8               3m17.814s       1.6844      yes
	// 16              2m35.226s       2.8225      yes
	// 22                2m15.4s       3.7530      yes
	// 32              1m51.194s       5.5655      yes
	// 44              1m30.722s       7.6954      yes
	// 64              1m11.348s      11.1804      yes
	// → rent 4 cloud cores: finishes in 3m52s for $1.1664 (instances $0.6800, transfer $0.4859, requests $0.0005)
	// Provisioning for deadline 2m30s
	// cloud cores      makespan         cost   meets?
	// 4               3m51.532s       1.1664
	// 8               3m17.814s       1.6844
	// 16              2m35.226s       2.8225
	// 22                2m15.4s       3.7530      yes  ← chosen
	// 32              1m51.194s       5.5655      yes
	// 44              1m30.722s       7.6954      yes
	// 64              1m11.348s      11.1804      yes
	// → rent 22 cloud cores: finishes in 2m15s for $3.7530 (instances $3.7400, transfer $0.0125, requests $0.0005)
	// Provisioning for deadline 1m40s
	// cloud cores      makespan         cost   meets?
	// 4               3m51.532s       1.1664
	// 8               3m17.814s       1.6844
	// 16              2m35.226s       2.8225
	// 22                2m15.4s       3.7530
	// 32              1m51.194s       5.5655
	// 44              1m30.722s       7.6954      yes  ← chosen
	// 64              1m11.348s      11.1804      yes
	// → rent 44 cloud cores: finishes in 1m31s for $7.6954 (instances $7.4800, transfer $0.2149, requests $0.0005)
}
