package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// The corpus is the fixed document set every workload preloads. Its
// aggregate shape (document count, depth mix, byte size) is the same
// for every seed; the seed only decides which document gets which
// depth, every attribute value, the hot set and the order of
// operations. That keeps run-to-run differences between seeds out of
// the metrics: the server does the same amount of work whatever the
// seed, on different bytes.

const (
	// batchDocs is the document count of one ingest batch, and the
	// stratification unit of the depth mix: every aligned block of
	// batchDocs documents one client owns holds exactly depthMix, so
	// every batch a client sends costs the server the same work.
	batchDocs = 32
	// clients is the closed-loop client count (nproc on the reference
	// machine). Client c owns the documents whose index ≡ c mod clients.
	clients = 2
	// hotKeys is the lineage_hot working set: it fits the server's
	// default 4096-entry read cache 16 times over.
	hotKeys = 256
)

// depthMix is the chain depth of the batchDocs documents of one block:
// 24 shallow, 7 medium, 1 deep (75 % / 21.9 % / 3.1 %).
var depthMix = [batchDocs]int{
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	64, 64, 64, 64, 64, 64, 64,
	256,
}

// corpusDoc is one document: a used/wasGeneratedBy chain of depth
// entities ex:e0..e<depth-1> and activities ex:a0..a<depth-1>, in two
// pre-encoded versions of identical length that differ in every
// attribute value.
type corpusDoc struct {
	id    string
	depth int
	body  [2][]byte // canonical PROV-JSON, version 0 and 1
}

type corpus struct {
	docs []corpusDoc
	// hot holds the lineage_hot keys: document indexes whose leaf
	// entity's ancestors are queried. Stratified like depthMix.
	hot []int
	// liveBytes is the PROV-JSON size of the document set, the same
	// whichever version of each document is live.
	liveBytes int64
	// entities is the total entity count: the cold lineage key space is
	// entities × 2 directions.
	entities int
}

// newCorpus generates n documents (a multiple of clients*batchDocs)
// from seed.
func newCorpus(seed int64, n int) *corpus {
	if n <= 0 || n%(clients*batchDocs) != 0 {
		panic(fmt.Sprintf("corpus size %d is not a multiple of %d", n, clients*batchDocs))
	}
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{docs: make([]corpusDoc, n)}
	// Depths: shuffle depthMix independently inside every block.
	for c0 := 0; c0 < clients; c0++ {
		for blk := 0; blk < n/clients/batchDocs; blk++ {
			mix := depthMix
			rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
			for t, d := range mix {
				c.docs[c0+clients*(blk*batchDocs+t)].depth = d
			}
		}
	}
	byDepth := map[int][]int{}
	for i := range c.docs {
		d := &c.docs[i]
		d.id = fmt.Sprintf("doc-%04d", i)
		salt := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)<<20
		d.body[0] = encodeChainDoc(d.depth, salt, 0)
		d.body[1] = encodeChainDoc(d.depth, salt, 1)
		c.liveBytes += int64(len(d.body[0]))
		c.entities += d.depth
		byDepth[d.depth] = append(byDepth[d.depth], i)
	}
	// Hot set: the depth mix again, scaled to hotKeys (or to the corpus
	// when it is smaller, as in tests).
	want := hotKeys
	if want > n {
		want = n
	}
	for _, depth := range []int{12, 64, 256} {
		share := 0
		for _, d := range depthMix {
			if d == depth {
				share++
			}
		}
		ids := byDepth[depth]
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		c.hot = append(c.hot, ids[:want*share/batchDocs]...)
	}
	return c
}

// splitmix64 is the attribute-value generator: a stateless hash, so a
// value depends only on (seed, document, element, version).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

const hexDigits = "0123456789abcdef"

func appendHex16(b []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[v>>uint(shift)&15])
	}
	return b
}

// provPrefixes is the namespace block prov.Document.MarshalJSON emits,
// plus the bench namespace of the generated attributes.
const provPrefixes = `"prefix":{"bench":"http://example.org/ns/bench#","ex":"http://example.org/ns/default#","prov":"http://www.w3.org/ns/prov#","provml":"http://example.org/ns/provml#","xsd":"http://www.w3.org/2001/XMLSchema#","yprov":"http://yprov.disi.unitn.it/ns/yprov#"}`

// encodeChainDoc writes the PROV-JSON of one chain document in the
// field layout prov.Document.MarshalJSON produces (sorted top-level
// keys, typed qualified-name references), without going through the
// code under test: the server only ever sees generated bytes.
// Every entity carries a 16-hex-digit bench:tag unique to (salt,
// element, version); ex:e0 also carries bench:rev "v0"/"v1", the
// marker the post-crash read-back checks.
func encodeChainDoc(depth int, salt uint64, version int) []byte {
	b := make([]byte, 0, 420*depth+400)
	b = append(b, `{"activity":{`...)
	for i := 0; i < depth; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `"ex:a`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `":{}`...)
	}
	b = append(b, `},"entity":{`...)
	for i := 0; i < depth; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `"ex:e`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `":{`...)
		if i == 0 {
			b = append(b, `"bench:rev":"v`...)
			b = strconv.AppendInt(b, int64(version), 10)
			b = append(b, `",`...)
		}
		b = append(b, `"bench:tag":"`...)
		b = appendHex16(b, splitmix64(salt+uint64(i)<<1+uint64(version)))
		b = append(b, `"}`...)
	}
	b = append(b, `},`...)
	b = append(b, provPrefixes...)
	b = append(b, `,"used":{`...)
	for i := 1; i < depth; i++ {
		if i > 1 {
			b = append(b, ',')
		}
		b = appendRelation(b, "u", i, "ex:a", i, "ex:e", i-1)
	}
	b = append(b, `},"wasGeneratedBy":{`...)
	for i := 0; i < depth; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRelation(b, "g", i, "ex:a", i, "ex:e", i)
	}
	return append(b, `}}`...)
}

// appendRelation writes one used/wasGeneratedBy record linking
// activity <act><ai> and entity <ent><ei> under blank-node id _:<tag><n>.
func appendRelation(b []byte, tag string, n int, act string, ai int, ent string, ei int) []byte {
	b = append(b, `"_:`...)
	b = append(b, tag...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `":{"prov:activity":{"$":"`...)
	b = append(b, act...)
	b = strconv.AppendInt(b, int64(ai), 10)
	b = append(b, `","type":"prov:QUALIFIED_NAME"},"prov:entity":{"$":"`...)
	b = append(b, ent...)
	b = strconv.AppendInt(b, int64(ei), 10)
	return append(b, `","type":"prov:QUALIFIED_NAME"}}`...)
}

// lineageSize is the number of nodes the service must return for the
// lineage of entity e<k> in a chain of the given depth: ancestors are
// a0..ak and e0..e<k-1>, descendants a<k+1>.. and e<k+1>...
func lineageSize(depth, k int, ancestors bool) int {
	if ancestors {
		return 2*k + 1
	}
	return 2 * (depth - 1 - k)
}

// lineageMember reports whether node name (ex:e<i> or ex:a<i>) belongs
// to the lineage of entity e<k>.
func lineageMember(name string, depth, k int, ancestors bool) bool {
	if len(name) < 5 || name[:3] != "ex:" {
		return false
	}
	i, err := strconv.Atoi(name[4:])
	if err != nil || i < 0 || i >= depth {
		return false
	}
	switch name[3] {
	case 'a':
		if ancestors {
			return i <= k
		}
		return i > k
	case 'e':
		if ancestors {
			return i < k
		}
		return i > k
	}
	return false
}
