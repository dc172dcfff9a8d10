package core

// DistinctTrailNodes counts the distinct nodes of the result's live history
// trails by identity, independently of Result.Trail.
func DistinctTrailNodes(r *Result) int {
	seen := make(map[*trail[PortRef]]bool)
	for _, p := range r.Paths {
		for n := p.hist; n != nil && !seen[n]; n = n.prev {
			seen[n] = true
		}
	}
	return len(seen)
}
