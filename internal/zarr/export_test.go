package zarr

// Len exposes the element count to the external fuzzer, which bounds
// what it reads by it.
func (a *Array) Len() int { return a.elems() }
