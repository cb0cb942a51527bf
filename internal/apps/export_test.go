package apps

// searchCounts runs the k-means search over pts and returns for how many of
// them the first guess is already the plain scan's answer, and how many
// distances the search evaluated in all.
func (r *KMeansReducer) searchCounts(pts [][]float64) (rightGuesses, evals int) {
	for _, pt := range pts {
		want, _ := refKMeansAssign(r.Params.Centers, pt)
		if r.guess(pt) == want {
			rightGuesses++
		}
		_, _, n := r.search(pt)
		evals += n
	}
	return rightGuesses, evals
}
