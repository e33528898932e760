// Package parallel evaluates TMNF programs over in-memory trees with
// multiple workers, exploiting the intrinsic parallelism of tree automata
// the paper points out in Sections 6.2 and 7: runs on disjoint subtrees
// are completely independent, so both evaluation phases parallelise by
// splitting the tree at a frontier of subtrees.
//
// The binary-tree preorder layout makes the decomposition trivial — every
// subtree is a contiguous index range, expressed as storage.Extent so the
// same frontier vocabulary covers in-memory node ranges and on-disk byte
// ranges (core.RunDiskBatchParallel is the secondary-storage
// counterpart, cutting its frontier from the database's subtree index).
// The two automata are shared through core.SharedEngine with a private
// dense core.BatchCache per worker and member, so states computed by one
// worker are reused by all. On balanced trees (the ACGT-infix model; see the paper's
// discussion of parallel regular expression matching) phase work divides
// evenly; on degenerate right-deep trees (ACGT-flat) the frontier
// collapses to a few huge chains and parallelism yields nothing — which
// is exactly why the paper restructures sequences into balanced infix
// trees.
package parallel

import (
	"context"

	"arb/internal/core"
	"arb/internal/storage"
	"arb/internal/tree"
)

// SubtreeSizes returns, for every node of t, the size of its binary
// subtree — the length of its contiguous preorder extent.
func SubtreeSizes(t *tree.Tree) []int32 {
	n := t.Len()
	size := make([]int32, n)
	for v := n - 1; v >= 0; v-- {
		size[v] = 1
		if c := t.First(tree.NodeID(v)); c != tree.None {
			size[v] += size[c]
		}
		if c := t.Second(tree.NodeID(v)); c != tree.None {
			size[v] += size[c]
		}
	}
	return size
}

// Frontier cuts the tree into maximal subtrees no larger than target
// nodes, returned as contiguous preorder extents (the same byte-range
// form the disk evaluator's storage.SubtreeIndex.Cut produces). Nodes not
// covered by an extent are the top region gluing the frontier together.
func Frontier(t *tree.Tree, size []int32, target int32) []storage.Extent {
	if target < 1 {
		target = 1
	}
	var tasks []storage.Extent
	// Iterative cut: an explicit stack, since degenerate (right-deep)
	// trees would overflow the goroutine stack with recursion.
	stack := []tree.NodeID{t.Root()}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if size[v] <= target {
			tasks = append(tasks, storage.Extent{Root: int64(v), Size: int64(size[v])})
			continue
		}
		if c := t.Second(v); c != tree.None {
			stack = append(stack, c)
		}
		if c := t.First(v); c != tree.None {
			stack = append(stack, c)
		}
	}
	return tasks
}

// runTasks fans the extents out over core.RunPool's worker pool; run
// receives the worker id so each goroutine can use its private cache,
// and the task index so it can find its in-chunk prune list.
func runTasks(ctx context.Context, workers int, tasks []storage.Extent, run func(worker, i int, x storage.Extent) error) error {
	if len(tasks) == 0 {
		return nil
	}
	return core.RunPool(ctx, workers, len(tasks), func(worker, i int) error {
		return run(worker, i, tasks[i])
	})
}
