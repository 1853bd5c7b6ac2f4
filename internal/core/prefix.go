package core

import "github.com/p2pkeyword/keysearch/internal/hypercube"

// prefixBranches partitions the candidate set of a prefix query with
// dimension mask M — every vertex that intersects M, {v : v ∧ M ≠ 0} —
// into one SBT branch per dimension d ∈ M: rooted at e_d, excluding the
// masked dimensions below d. Each candidate vertex is therefore visited
// by exactly one branch (the one of its lowest masked dimension), and
// the traversal, wave-batching, resilience and double-read machinery
// run unchanged inside every branch. The coordinating server owns the
// lowest branch root; later roots are remote vertices visited like any
// other frontier node.
func prefixBranches(cube hypercube.Cube, mask hypercube.Vertex) []branch {
	branches := make([]branch, 0, mask.OnesCount())
	for d := 0; d < cube.Dim(); d++ {
		if bit := hypercube.Vertex(1) << uint(d); mask&bit != 0 {
			branches = append(branches, branch{root: bit, exclude: mask & (bit - 1)})
		}
	}
	return branches
}
