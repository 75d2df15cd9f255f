package sparse

import "math/bits"

// Footprint is what a stack of layers actually holds in index and value
// arrays, an array that several layers read counted once. It is the measured
// twin of the declared bytes per edge: a stack of L identical constant layers
// reads like one layer here, and a layer whose weights were mutated (so that
// it had to take copies of its own) shows up as one more distinct layer and
// 8 bytes per edge for each order it now stores.
type Footprint struct {
	DistinctLayers int   // layers differing in pattern or in CSR value storage
	StructureBytes int64 // CSR index arrays, and CSC ones where a kernel was built
	ValueBytes     int64 // CSR- and CSC-ordered weights
}

// StackFootprint measures the storage behind a layer stack: its matrices and
// the CSC kernels built on them. A radix kernel reads those two and holds no
// values of its own.
func StackFootprint(mats []*Matrix, kerns []*Kernel) Footprint {
	type layer struct {
		pat  *Pattern
		vals *float64
	}
	var f Footprint
	layers := make(map[layer]bool)
	csr, csc := make(map[*Pattern]bool), make(map[*Pattern]bool)
	runs := make(map[*float64]int) // first element → longest view of the array seen
	values := func(v []float64) *float64 {
		if len(v) == 0 {
			return nil
		}
		runs[&v[0]] = max(runs[&v[0]], len(v))
		return &v[0]
	}
	for _, m := range mats {
		layers[layer{m.pat, values(m.vals)}] = true
		if !csr[m.pat] {
			csr[m.pat] = true
			f.StructureBytes += int64(len(m.pat.rowPtr)+len(m.pat.colIdx)) * (bits.UintSize / 8)
		}
	}
	for _, k := range kerns {
		values(k.vals)
		if !csc[k.src] {
			csc[k.src] = true
			f.StructureBytes += int64(len(k.colPtr)+len(k.rowIdx)+len(k.perm)) * 4
		}
	}
	f.DistinctLayers = len(layers)
	for _, n := range runs {
		f.ValueBytes += int64(n) * 8
	}
	return f
}
