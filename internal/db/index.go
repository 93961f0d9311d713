package db

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"

	"github.com/cqa-go/certainty/internal/obs"
)

// Index telemetry, recorded into the process-wide registry. Handles are
// resolved once at init, so the hot path pays one atomic add per
// copy-on-write privatization or relation digest composition.
var (
	indexInvalidations = obs.Default.Counter("db_index_invalidations_total")
	digestComputations = obs.Default.Counter("db_digest_computations_total")
)

func init() {
	obs.Default.Help("db_index_invalidations_total", "Copy-on-write relation privatizations caused by mutations.")
	obs.Default.Help("db_digest_computations_total", "Relation digest compositions over per-block digests.")
}

// A mutation hashes nothing. A relation's digest is composed from its facts
// on first use and memoized on the relation until a mutation touches it;
// Digest and DigestOf compose the memoized relation digests, while
// BlockDigests and BlockDigest hash the blocks they cover on every call.
// Change detection uses relation versions (RelationVersion, ChangedBlocks),
// which hash nothing either.
// Fact-level access for evaluation goes through the interned columnar view
// (interned.go), not through this file.

// computeDigest hashes a fact set order-independently: each fact is
// rendered as its length-prefixed canonical encoding (including the key
// length, which Fact.ID omits), the encodings are sorted, and the sorted
// sequence is hashed with per-entry length prefixes so concatenation is
// unambiguous.
func computeDigest(facts []Fact) string {
	var g digester
	return hexDigest(g.sum(facts))
}

// digester computes computeDigest's hash in buffers it reuses from one fact
// set to the next.
type digester struct {
	enc   []byte   // the facts' encodings, back to back
	spans [][2]int // each encoding's [start, end) in enc
	msg   []byte   // the sorted encodings with their length prefixes
}

func (g *digester) sum(facts []Fact) [sha256.Size]byte {
	g.enc, g.spans = g.enc[:0], g.spans[:0]
	for _, f := range facts {
		start := len(g.enc)
		g.enc = strconv.AppendInt(g.enc, int64(f.KeyLen), 10)
		g.enc = append(g.enc, '|')
		g.enc = appendID(g.enc, f.Rel, f.Args)
		g.spans = append(g.spans, [2]int{start, len(g.enc)})
	}
	enc := g.enc
	slices.SortFunc(g.spans, func(a, b [2]int) int {
		return bytes.Compare(enc[a[0]:a[1]], enc[b[0]:b[1]])
	})
	g.msg = g.msg[:0]
	for _, sp := range g.spans {
		g.msg = appendPart(g.msg, enc[sp[0]:sp[1]])
	}
	return sha256.Sum256(g.msg)
}

// hexDigest renders a SHA-256 sum as lowercase hex.
func hexDigest(sum [sha256.Size]byte) string {
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// HashParts is the digest composition used throughout the index — a
// SHA-256 over length-prefixed parts — exported so higher layers (the shard
// fingerprints of internal/shard) compose their content addresses from the
// same primitive and inherit its collision resistance.
func HashParts(parts []string) string { return hashParts(parts) }

// hashParts hashes a sequence of strings with per-entry length prefixes so
// concatenation is unambiguous, returning the hex digest. The message is
// streamed through a fixed buffer, so only the result is allocated.
func hashParts(parts []string) string {
	h := sha256.New()
	var buf [1024]byte
	n := 0
	for _, p := range parts {
		if n+20 > len(buf) { // room for the longest length prefix
			h.Write(buf[:n])
			n = 0
		}
		n += len(strconv.AppendInt(buf[n:n], int64(len(p)), 10))
		buf[n] = ':'
		n++
		for len(p) > 0 {
			if n == len(buf) {
				h.Write(buf[:n])
				n = 0
			}
			c := copy(buf[n:], p)
			n += c
			p = p[c:]
		}
	}
	h.Write(buf[:n])
	var sum [sha256.Size]byte
	return hexDigest([sha256.Size]byte(h.Sum(sum[:0])))
}

// Digest returns a content digest of the database: two databases have equal
// digests iff they contain the same set of facts (up to SHA-256 collision),
// regardless of insertion order. It is composed on every call from the
// memoized relation digests, so after a write it rehashes only the
// relations the write touched.
func (d *DB) Digest() string {
	names, rels := d.Relations(), d.relations()
	parts := make([]string, 0, 2*len(names))
	for _, name := range names {
		parts = append(parts, name, rels[name].digestOf())
	}
	return hashParts(parts)
}

// RelationDigest returns the content digest of one relation's facts, or ""
// when the relation is absent. Two databases whose relation digests for rel
// coincide contain the same facts for rel.
func (d *DB) RelationDigest(rel string) string {
	r, ok := d.relations()[rel]
	if !ok {
		return ""
	}
	return r.digestOf()
}

// DigestOf returns a content digest over the named relations only: it is
// determined exactly by the facts of those relations (absent relations
// participate as explicit empty markers, so "absent" and "never mentioned"
// compose differently).
func (d *DB) DigestOf(rels []string) string {
	names := append([]string(nil), rels...)
	sort.Strings(names)
	parts := make([]string, 0, 2*len(names))
	for i, name := range names {
		if i > 0 && names[i-1] == name {
			continue // deduplicate
		}
		parts = append(parts, name, d.RelationDigest(name))
	}
	return hashParts(parts)
}

// BlockDigests returns rel's per-block content digests keyed by
// Fact.BlockID, or nil when the relation is absent. Two blocks have equal
// digests iff they hold the same fact set (up to SHA-256 collision),
// regardless of insertion order. The map is built on every call.
func (d *DB) BlockDigests(rel string) map[string]string {
	r, ok := d.relations()[rel]
	if !ok {
		return nil
	}
	blks, digests := r.blockDigests()
	out := make(map[string]string, len(blks))
	for i, b := range blks {
		out[b.id] = digests[i]
	}
	return out
}

// BlockDigest returns the content digest of block bid (a Fact.BlockID) of
// relation rel, the value BlockDigests maps it to, or "" when the block is
// absent. The shard fingerprints are composed from it.
func (d *DB) BlockDigest(rel, bid string) string {
	facts := d.BlockFacts(rel, bid)
	if facts == nil {
		return ""
	}
	return computeDigest(facts)
}

// BlockIDs returns the block IDs (Fact.BlockID) of rel in first-insertion
// order, or nil when the relation is absent. The slice is a new one, cut
// from the database's memoized block order.
func (d *DB) BlockIDs(rel string) []string {
	r, ok := d.relations()[rel]
	if !ok {
		return nil
	}
	out := make([]string, 0, r.blocks)
	for _, b := range d.orders().blocks {
		if b.facts[0].Rel == rel {
			out = append(out, b.id)
		}
	}
	return out
}

// RelationVersion returns the version of rel's content, or 0 when the
// relation is absent. Every mutation of a relation, in place or on a
// copy-on-write copy, gives it a new version from one process-wide
// counter, so two databases whose rel has one version hold the same facts
// for it. The server's hosted verdict cache keys on these versions.
func (d *DB) RelationVersion(rel string) uint64 {
	if c := d.cols; c != nil {
		if ri, ok := c.ords[rel]; ok {
			return c.versions[ri]
		}
		return 0
	}
	r, ok := d.rels[rel]
	if !ok {
		return 0
	}
	return r.version
}

// ChangedBlocks returns the block IDs (Fact.BlockID) of rel that mutations
// touched since the relation was at version since: oldest first, possibly
// repeated, and empty when since is the current version. ok is false when
// the relation's change log does not reach back to since: the relation is
// absent, since is older than the log's bound, or since is no version of
// this relation's history (a sibling clone's, another database's). Only
// blocks in the list can differ between the two versions. The slice is
// shared with d: treat it as read-only and do not hold it across a
// mutation of d.
func (d *DB) ChangedBlocks(rel string, since uint64) (bids []string, ok bool) {
	r, present := d.relations()[rel]
	if !present {
		return nil, false
	}
	return r.changedSince(since)
}
