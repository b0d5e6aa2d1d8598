package provstore

// Per-shard read watermarks. Every shard tracks the sequence of the
// newest mutation applied to it; a read's "version" is the maximum
// watermark over the shards it touches. Journal sequences are globally
// monotone across shards (one WAL, one counter), so whenever any
// touched shard changes, its new watermark exceeds every previously
// observable maximum — the version therefore changes iff the state a
// query can observe changed, which is exactly the fingerprint the
// response cache (internal/readcache) keys on. In-memory stores have
// no journal; memSeq numbers their mutations with the same
// store-global monotonicity.

// ReadVersion reports the version a read touching the given document
// ids validates against: the maximum applied watermark over the owning
// shards, or over every shard when no ids are given (store-wide reads
// such as List and FindBy*). Monotone per id set — it changes whenever
// any touched shard applies a mutation, and never moves backward.
func (s *Store) ReadVersion(ids ...string) uint64 {
	var max uint64
	if len(ids) == 0 {
		for _, sh := range s.shards {
			if v := sh.applied.Load(); v > max {
				max = v
			}
		}
		return max
	}
	for _, id := range ids {
		if v := s.shardFor(id).applied.Load(); v > max {
			max = v
		}
	}
	return max
}
