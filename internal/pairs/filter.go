package pairs

import "sync"

// Filter bundles the candidate-pair admission rules of one attack
// configuration for one instance: legality, the Imp neighborhood radius,
// and the DiffVpinY limit. The zero Filter is not meaningful; construct
// through Instance.Filter.
type Filter struct {
	inst   *Instance
	radius float64 // absolute DBU; <0 disables the neighborhood test
	yLimit bool
}

// Filter builds the admission filter for this instance. radiusNorm is the
// neighborhood radius as a fraction of die width (< 0 disables the
// neighborhood test); yLimit enables the DiffVpinY = 0 restriction of the
// "Y" configurations (§III-G).
func (inst *Instance) Filter(radiusNorm float64, yLimit bool) Filter {
	f := Filter{inst: inst, radius: -1, yLimit: yLimit}
	if radiusNorm >= 0 {
		f.radius = radiusNorm * inst.dieW
	}
	return f
}

// Instance returns the instance the filter admits pairs of.
func (f Filter) Instance() *Instance { return f.inst }

// Admits reports whether the pair (a, b) may be trained on or tested.
func (f Filter) Admits(a, b int) bool {
	if a == b || !f.inst.Ex.Legal(a, b) {
		return false
	}
	if f.yLimit && f.inst.Ex.DiffVpinYOf(a, b) != 0 {
		return false
	}
	if f.radius >= 0 && f.inst.Ex.VpinDist(a, b) > f.radius {
		return false
	}
	return true
}

// AppendAdmitted appends every admitted candidate b of v-pin a to dst, in
// the pipeline's canonical deterministic order, and returns the extended
// slice: exactly the b with Admits(a, b), found through the spatial index
// instead of testing every pair. It is the one candidate walk (see
// vpinIndex.appendAdmitted) behind Enumerate, the scorer's counting pass
// and gather, and training's negative sampling; a caller that reuses dst
// across calls walks without allocating once dst has grown.
func (f Filter) AppendAdmitted(dst []int32, a int) []int32 {
	return f.inst.ix.appendAdmitted(dst, a, f.radius, f.yLimit)
}

// Enumerate invokes fn for every admitted candidate b of v-pin a, in the
// canonical order: AppendAdmitted into a pooled buffer, then fn per
// candidate. fn may call Enumerate again.
func (f Filter) Enumerate(a int, fn func(b int32)) {
	buf := enumBufs.Get().(*[]int32)
	*buf = f.AppendAdmitted((*buf)[:0], a)
	for _, b := range *buf {
		fn(b)
	}
	enumBufs.Put(buf)
}

// enumBufs recycles Enumerate's candidate buffers, so a steady stream of
// calls allocates nothing.
var enumBufs = sync.Pool{New: func() any { return new([]int32) }}
