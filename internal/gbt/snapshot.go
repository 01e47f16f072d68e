package gbt

import (
	"errors"
	"fmt"

	"github.com/navarchos/pdm/internal/checkpoint"
)

// ErrBadSnapshot is returned when serialized regressor bytes do not
// decode into a valid ensemble.
var ErrBadSnapshot = errors.New("gbt: malformed regressor snapshot")

// regressorTag marks serialized Regressor payloads so a gbt blob cannot
// be confused with another model family's bytes. 'G' (0x47) was the
// layout that also carried η, λ, γ, the minimum child weight, the two
// subsample fractions and the seed; it is retired, never to be reused,
// so a regressor written with it fails to restore by name.
const regressorTag = uint8(0x48) // 'H'

// maxNodes bounds a single serialized tree so hostile length prefixes
// cannot drive allocation (a depth-limited tree is far smaller).
const maxNodes = 1 << 22

// AppendTo serialises the trained ensemble into b: its tree count and
// depth, the base score and the trees. Predict needs only the last two
// and the shrinkage constant.
func (r *Regressor) AppendTo(b *checkpoint.Buf) {
	b.Uint8(regressorTag)
	b.Int(r.cfg.NumTrees)
	b.Int(r.cfg.MaxDepth)
	b.Float64(r.base)
	b.Int(r.dim)
	b.Int(len(r.trees))
	for i := range r.trees {
		nodes := r.trees[i].nodes
		b.Int(len(nodes))
		for j := range nodes {
			n := &nodes[j]
			b.Bool(n.isLeaf)
			b.Int(n.feature)
			b.Float64(n.threshold)
			b.Int(n.left)
			b.Int(n.right)
			b.Float64(n.leaf)
		}
	}
}

// ReadRegressor decodes an ensemble serialised by AppendTo. Node links
// are validated so a corrupted arena cannot send Predict out of bounds
// or into a cycle.
func ReadRegressor(rb *checkpoint.RBuf) (*Regressor, error) {
	if tag := rb.Uint8(); tag != regressorTag {
		return nil, fmt.Errorf("%w: tag %#x, want %#x", ErrBadSnapshot, tag, regressorTag)
	}
	var r Regressor
	r.cfg.NumTrees = rb.Int()
	r.cfg.MaxDepth = rb.Int()
	r.base = rb.Float64()
	r.dim = rb.Int()
	numTrees := rb.Int()
	if err := rb.Err(); err != nil {
		return nil, err
	}
	if r.dim <= 0 || numTrees < 0 || numTrees > maxNodes {
		return nil, ErrBadSnapshot
	}
	r.trees = make([]tree, 0, numTrees)
	for t := 0; t < numTrees; t++ {
		numNodes := rb.Int()
		if err := rb.Err(); err != nil {
			return nil, err
		}
		if numNodes <= 0 || numNodes > maxNodes {
			return nil, ErrBadSnapshot
		}
		nodes := make([]node, numNodes)
		for j := range nodes {
			n := &nodes[j]
			n.isLeaf = rb.Bool()
			n.feature = rb.Int()
			n.threshold = rb.Float64()
			n.left = rb.Int()
			n.right = rb.Int()
			n.leaf = rb.Float64()
			if rb.Err() != nil {
				return nil, rb.Err()
			}
			if !n.isLeaf {
				// predict only descends: children strictly after the
				// parent keeps traversal acyclic and in bounds.
				if n.feature < 0 || n.feature >= r.dim ||
					n.left <= j || n.left >= numNodes ||
					n.right <= j || n.right >= numNodes {
					return nil, ErrBadSnapshot
				}
			}
		}
		r.trees = append(r.trees, tree{nodes: nodes})
	}
	if err := rb.Err(); err != nil {
		return nil, err
	}
	return &r, nil
}
