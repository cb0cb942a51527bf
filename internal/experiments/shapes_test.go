package experiments

import "testing"

// TestPaperShapesHold pins the Figure-3 shape checks EXPERIMENTS.md claims,
// so a regenerated results_all.txt that keeps its bytes consistent but
// loses a shape fails here rather than in review:
//   - knn's slowdown rises strictly with skew, 50/50 < 33/67 < 17/83;
//   - every kmeans hybrid slowdown is under 10 %;
//   - in every hybrid env pagerank slows down more than kmeans;
//   - env-cloud retrieves knn's data no slower than env-local.
func TestPaperShapesHold(t *testing.T) {
	knn, kmeans, pagerank := mustFig3(t, KNN), mustFig3(t, KMeans), mustFig3(t, PageRank)
	for i := 1; i < len(HybridEnvs); i++ {
		prev, env := HybridEnvs[i-1], HybridEnvs[i]
		if a, b := knn.Slowdown(prev), knn.Slowdown(env); !(a < b) {
			t.Errorf("knn slowdown %s %.1f%% is not below %s %.1f%%", prev, 100*a, env, 100*b)
		}
	}
	for _, env := range HybridEnvs {
		if s := kmeans.Slowdown(env); s >= 0.10 {
			t.Errorf("kmeans %s slowdown %.1f%%, want under 10%%", env, 100*s)
		}
		if p, k := pagerank.Slowdown(env), kmeans.Slowdown(env); !(p > k) {
			t.Errorf("%s: pagerank slowdown %.1f%% is not above kmeans' %.1f%%", env, 100*p, 100*k)
		}
	}
	local := knn.Baseline().Sim.Clusters[0].Breakdown.Retrieval
	if cloud := knn.Cell(EnvCloud).Sim.Clusters[0].Breakdown.Retrieval; cloud > local {
		t.Errorf("knn env-cloud retrieval %v exceeds env-local's %v", cloud, local)
	}
}
