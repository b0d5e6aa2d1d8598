// Package devtrack implements the paper's §3.1 development-tracking use
// case without shelling out to git: a content-addressed snapshot store
// over a set of source files, a Myers line-diff between snapshots, and a
// command journal capturing the console history ("development graph")
// that can be linked to training runs and exported as PROV.
package devtrack

import "strings"

// OpKind is one diff operation type.
type OpKind byte

// Diff operation kinds.
const (
	OpEqual  OpKind = '='
	OpDelete OpKind = '-'
	OpInsert OpKind = '+'
)

// Op is one line-level diff operation.
type Op struct {
	Kind OpKind
	Line string
}

// DiffLines computes a minimal line diff from a to b using Myers'
// O(ND) greedy algorithm.
func DiffLines(a, b []string) []Op {
	n, m := len(a), len(b)
	max := n + m
	if max == 0 {
		return nil
	}
	// v[k] = furthest x on diagonal k; offset by max.
	v := make([]int, 2*max+2)
	var trace [][]int
	var endD int
	for d := 0; d <= max; d++ {
		snapshot := make([]int, len(v))
		copy(snapshot, v)
		trace = append(trace, snapshot)
		found := false
		for k := -d; k <= d; k += 2 {
			idx := k + max
			var x int
			if k == -d || (k != d && v[idx-1] < v[idx+1]) {
				x = v[idx+1] // move down (insert)
			} else {
				x = v[idx-1] + 1 // move right (delete)
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[idx] = x
			if x >= n && y >= m {
				endD = d
				found = true
				break
			}
		}
		if found {
			break
		}
	}

	// Backtrack.
	var ops []Op
	x, y := n, m
	for d := endD; d > 0; d-- {
		vPrev := trace[d]
		k := x - y
		idx := k + max
		var prevK int
		if k == -d || (k != d && vPrev[idx-1] < vPrev[idx+1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vPrev[prevK+max]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			ops = append(ops, Op{OpEqual, a[x-1]})
			x--
			y--
		}
		if x == prevX {
			ops = append(ops, Op{OpInsert, b[y-1]})
			y--
		} else {
			ops = append(ops, Op{OpDelete, a[x-1]})
			x--
		}
	}
	for x > 0 && y > 0 {
		ops = append(ops, Op{OpEqual, a[x-1]})
		x--
		y--
	}
	for y > 0 {
		ops = append(ops, Op{OpInsert, b[y-1]})
		y--
	}
	for x > 0 {
		ops = append(ops, Op{OpDelete, a[x-1]})
		x--
	}
	// Reverse.
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

// Unified renders ops in a unified-diff-like text form (full context).
func Unified(ops []Op) string {
	var sb strings.Builder
	for _, op := range ops {
		switch op.Kind {
		case OpEqual:
			sb.WriteString("  ")
		case OpDelete:
			sb.WriteString("- ")
		case OpInsert:
			sb.WriteString("+ ")
		}
		sb.WriteString(op.Line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// DiffStats summarizes a diff.
type DiffStats struct {
	Inserted, Deleted, Unchanged int
}

// Stats counts operations by kind.
func Stats(ops []Op) DiffStats {
	var st DiffStats
	for _, op := range ops {
		switch op.Kind {
		case OpInsert:
			st.Inserted++
		case OpDelete:
			st.Deleted++
		default:
			st.Unchanged++
		}
	}
	return st
}
