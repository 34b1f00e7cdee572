// Package dataset provides the sample abstraction of the paper — a set
// Ẑ = {(X₁,Y₁), …, (Xₙ,Yₙ)} of i.i.d. examples — together with the
// neighboring-dataset relation that differential privacy is defined over,
// synthetic generators for every workload in the experiment suite, and
// train/test utilities.
//
// Following Section 2.2 of the paper, two sample sets are neighbors if
// they differ in exactly one example (replace-one semantics, fixed n).
package dataset

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/rng"
)

// Example is one labelled record Z = (X, Y). For unsupervised settings Y
// is ignored by convention.
type Example struct {
	X []float64
	Y float64
}

// Clone returns a deep copy of the example.
func (e Example) Clone() Example {
	return Example{X: append([]float64(nil), e.X...), Y: e.Y}
}

// Dataset is an ordered collection of examples. The zero value is an
// empty dataset ready for Append.
type Dataset struct {
	Examples []Example
}

// ErrEmptyDataset is returned by operations that need at least one example.
var ErrEmptyDataset = errors.New("dataset: empty dataset")

// New returns a dataset wrapping the given examples (not copied).
func New(examples []Example) *Dataset { return &Dataset{Examples: examples} }

// Len returns the number of examples n.
func (d *Dataset) Len() int { return len(d.Examples) }

// Dim returns the feature dimensionality (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.Examples) == 0 {
		return 0
	}
	return len(d.Examples[0].X)
}

// Append adds an example.
func (d *Dataset) Append(e Example) { d.Examples = append(d.Examples, e) }

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Examples: make([]Example, len(d.Examples))}
	for i, e := range d.Examples {
		out.Examples[i] = e.Clone()
	}
	return out
}

// ReplaceOne returns a new dataset equal to d except that the example at
// index i is replaced by e — the neighboring-dataset operation of the
// paper (Section 2.2). It panics if i is out of range.
func (d *Dataset) ReplaceOne(i int, e Example) *Dataset {
	if i < 0 || i >= len(d.Examples) {
		panic(fmt.Sprintf("dataset: ReplaceOne index %d out of range [0,%d)", i, len(d.Examples)))
	}
	out := d.Clone()
	out.Examples[i] = e.Clone()
	return out
}

// IsNeighborOf reports whether d and other differ in at most one example
// (and have equal length). Equal datasets are trivially neighbors.
func (d *Dataset) IsNeighborOf(other *Dataset) bool {
	if d.Len() != other.Len() {
		return false
	}
	diffs := 0
	for i := range d.Examples {
		if !equalExample(d.Examples[i], other.Examples[i]) {
			diffs++
			if diffs > 1 {
				return false
			}
		}
	}
	return true
}

func equalExample(a, b Example) bool {
	//dplint:ignore floateq intentional bitwise record equality: the neighbor relation compares stored values, not arithmetic results
	if a.Y != b.Y || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] { //dplint:ignore floateq intentional bitwise record equality: stored values, not arithmetic results
			return false
		}
	}
	return true
}

// Labels returns a copy of all Y values.
func (d *Dataset) Labels() []float64 {
	out := make([]float64, len(d.Examples))
	for i, e := range d.Examples {
		out[i] = e.Y
	}
	return out
}

// Feature returns a copy of feature column j.
func (d *Dataset) Feature(j int) []float64 {
	out := make([]float64, len(d.Examples))
	for i, e := range d.Examples {
		out[i] = e.X[j]
	}
	return out
}

// Split partitions the dataset into a training set with the given fraction
// of the (shuffled) examples and a test set with the remainder. The split
// is deterministic given g. frac must lie in (0, 1).
func (d *Dataset) Split(frac float64, g *rng.RNG) (train, test *Dataset) {
	if frac <= 0 || frac >= 1 {
		panic("dataset: Split fraction must lie in (0,1)")
	}
	perm := g.Perm(d.Len())
	nTrain := int(math.Round(frac * float64(d.Len())))
	if nTrain == 0 {
		nTrain = 1
	}
	if nTrain == d.Len() {
		nTrain = d.Len() - 1
	}
	train = &Dataset{}
	test = &Dataset{}
	for i, p := range perm {
		if i < nTrain {
			train.Append(d.Examples[p].Clone())
		} else {
			test.Append(d.Examples[p].Clone())
		}
	}
	return train, test
}

// Subsample returns a new dataset of m examples drawn without replacement.
// It panics if m exceeds the dataset size.
func (d *Dataset) Subsample(m int, g *rng.RNG) *Dataset {
	if m < 0 || m > d.Len() {
		panic("dataset: Subsample size out of range")
	}
	perm := g.Perm(d.Len())
	out := &Dataset{Examples: make([]Example, 0, m)}
	for _, p := range perm[:m] {
		out.Append(d.Examples[p].Clone())
	}
	return out
}

// ClampFeatures clamps every feature into [lo, hi] in place and returns d.
// Bounded features are a precondition for the finite loss sensitivities
// that Theorem 4.1 needs.
func (d *Dataset) ClampFeatures(lo, hi float64) *Dataset {
	for i := range d.Examples {
		for j := range d.Examples[i].X {
			d.Examples[i].X[j] = mathx.Clamp(d.Examples[i].X[j], lo, hi)
		}
	}
	return d
}

// NormalizeRows scales every feature vector to have L2 norm at most 1,
// the standard preprocessing step of Chaudhuri et al.'s DP ERM setting
// (it bounds the per-example gradient and loss sensitivity). Rows with
// norm <= 1 are unchanged. It mutates d and returns it.
func (d *Dataset) NormalizeRows() *Dataset {
	for i := range d.Examples {
		norm := mathx.L2Norm(d.Examples[i].X)
		if norm > 1 {
			for j := range d.Examples[i].X {
				d.Examples[i].X[j] /= norm
			}
		}
	}
	return d
}
