// Package dag maintains the round-structured directed acyclic graph at the
// heart of DAG-based BFT SMR (Section 5, "Structural overview"). Vertices
// arrive via reliable broadcast (so each (round, source) position holds at
// most one vertex), carry strong edges to >= 2f+1 vertices of the previous
// round and weak edges to older uncovered vertices, and are committed and
// totally ordered by the consensus layer using strong-path queries and
// deterministic causal-history traversal, both provided here.
//
// Storage is round-sliced: each round holds a dense width-n slice, making
// the hot lookups (Has/Get during vote counting and path queries) array
// indexing instead of map probes.
package dag

import (
	"cmp"
	"fmt"
	"slices"

	"clanbft/internal/types"
)

// row is one round's storage.
type row struct {
	verts   []*types.Vertex
	ordered []bool
	mark    []uint32 // visited stamps, see DAG.mark
	count   int
}

// DAG stores delivered vertices and answers the structural queries the
// commit and ordering rules need. It is not safe for concurrent use; the
// consensus layer owns it from its serialized handler context.
type DAG struct {
	n        int
	rounds   map[types.Round]*row
	free     []*row      // retired by GC, zeroed, for row to reuse
	minRound types.Round // rounds below this are garbage collected
	maxRound types.Round

	// Walk scratch, reused across calls: the visited generation (see mark),
	// the frontier stack, and the result buffers of OrderCausalHistory and
	// MissingAncestors.
	gen     uint32
	stack   []*types.Vertex
	batch   []*types.Vertex
	missing []types.Position

	// Steps counts the edges examined by StrongPath, OrderCausalHistory and
	// MissingAncestors: the structural measure of ordering work (it does not
	// depend on the machine, only on what was walked).
	Steps uint64
}

// New creates an empty DAG for an n-party system.
func New(n int) *DAG {
	if n <= 0 {
		panic("dag: width must be positive")
	}
	return &DAG{n: n, rounds: map[types.Round]*row{}}
}

func (d *DAG) row(r types.Round) *row {
	rw, ok := d.rounds[r]
	if !ok {
		if k := len(d.free); k > 0 {
			rw, d.free = d.free[k-1], d.free[:k-1]
		} else {
			rw = &row{verts: make([]*types.Vertex, d.n), ordered: make([]bool, d.n), mark: make([]uint32, d.n)}
		}
		d.rounds[r] = rw
	}
	return rw
}

// Insert adds a delivered vertex. Inserting a second, different vertex at an
// occupied position is an error (RBC non-equivocation makes it impossible
// for honest inputs). Re-inserting the same vertex is a no-op.
func (d *DAG) Insert(v *types.Vertex) error {
	if int(v.Source) >= d.n {
		return fmt.Errorf("dag: source %d out of range", v.Source)
	}
	if v.Round < d.minRound {
		return nil // below the GC horizon; drop silently
	}
	rw := d.row(v.Round)
	if old := rw.verts[v.Source]; old != nil {
		if old.Equal(v) {
			return nil
		}
		return fmt.Errorf("dag: conflicting vertex at %v", v.Pos())
	}
	rw.verts[v.Source] = v
	rw.count++
	if v.Round > d.maxRound {
		d.maxRound = v.Round
	}
	return nil
}

// Get returns the vertex at pos, if present.
func (d *DAG) Get(pos types.Position) (*types.Vertex, bool) {
	if int(pos.Source) >= d.n {
		return nil, false
	}
	rw, ok := d.rounds[pos.Round]
	if !ok || rw.verts[pos.Source] == nil {
		return nil, false
	}
	return rw.verts[pos.Source], true
}

// Has reports whether pos holds a vertex.
func (d *DAG) Has(pos types.Position) bool {
	_, ok := d.Get(pos)
	return ok
}

// RoundCount returns how many vertices round r holds.
func (d *DAG) RoundCount(r types.Round) int {
	if rw, ok := d.rounds[r]; ok {
		return rw.count
	}
	return 0
}

// RoundVertices returns round r's vertices sorted by source.
func (d *DAG) RoundVertices(r types.Round) []*types.Vertex {
	rw, ok := d.rounds[r]
	if !ok {
		return nil
	}
	out := make([]*types.Vertex, 0, rw.count)
	for _, v := range rw.verts {
		if v != nil {
			out = append(out, v)
		}
	}
	return out
}

// MaxRound returns the highest round holding any vertex.
func (d *DAG) MaxRound() types.Round { return d.maxRound }

// Len returns the number of stored vertices.
func (d *DAG) Len() int {
	total := 0
	for _, rw := range d.rounds {
		total += rw.count
	}
	return total
}

// mark stamps pos as visited by the current walk and reports whether it was
// unvisited before. Stamps live in the rows (one uint32 per position, compared
// against the walk's generation), so a walk allocates no visited set.
func (d *DAG) mark(pos types.Position) bool {
	rw := d.row(pos.Round)
	if rw.mark[pos.Source] == d.gen {
		return false
	}
	rw.mark[pos.Source] = d.gen
	return true
}

// beginWalk opens a new visited generation and hands back the emptied
// frontier stack.
func (d *DAG) beginWalk() []*types.Vertex {
	d.gen++
	if d.gen == 0 { // wrapped: stale stamps could alias the new generation
		for _, rw := range d.rounds {
			clear(rw.mark)
		}
		d.gen = 1
	}
	return d.stack[:0]
}

// StrongPath reports whether a path of strong edges leads from the vertex at
// `from` to the vertex at `to`. Both endpoints must be present; a vertex has
// a trivial strong path to itself.
func (d *DAG) StrongPath(from, to types.Position) bool {
	if from == to {
		return d.Has(from)
	}
	if to.Round >= from.Round {
		return false
	}
	start, ok := d.Get(from)
	if !ok || !d.Has(to) {
		return false
	}
	// Depth-first backwards over strong edges (which only ever step one
	// round down). One round above the target a vertex either has the edge
	// or ends its branch: a binary search over its ordered edge list, not a
	// scan.
	stack := append(d.beginWalk(), start)
	defer func() { d.stack = stack[:0] }()
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.Round == to.Round+1 {
			d.Steps++
			if v.HasStrongEdgeTo(to) {
				return true
			}
			continue
		}
		d.Steps += uint64(len(v.StrongEdges))
		for _, e := range v.StrongEdges {
			p := e.Pos()
			if pv, ok := d.Get(p); ok && d.mark(p) {
				stack = append(stack, pv)
			}
		}
	}
	return false
}

// ReachableFrom returns every position reachable from the start positions by
// following strong and weak edges, visiting only rounds >= stop. Present
// start positions are themselves included. Sparse parent selection uses this
// to prune weak-edge candidates already covered transitively by the chosen
// strong parents.
func (d *DAG) ReachableFrom(starts []types.Position, stop types.Round) map[types.Position]bool {
	visited := map[types.Position]bool{}
	var frontier []*types.Vertex
	for _, p := range starts {
		if p.Round < stop || visited[p] {
			continue
		}
		if v, ok := d.Get(p); ok {
			visited[p] = true
			frontier = append(frontier, v)
		}
	}
	for len(frontier) > 0 {
		var next []*types.Vertex
		for _, v := range frontier {
			for _, edges := range [2][]types.VertexRef{v.StrongEdges, v.WeakEdges} {
				for _, e := range edges {
					p := e.Pos()
					if p.Round < stop || visited[p] {
						continue
					}
					visited[p] = true
					if pv, ok := d.Get(p); ok {
						next = append(next, pv)
					}
				}
			}
		}
		frontier = next
	}
	return visited
}

// IsOrdered reports whether pos has already been emitted in the total order.
func (d *DAG) IsOrdered(pos types.Position) bool {
	if int(pos.Source) >= d.n {
		return false
	}
	rw, ok := d.rounds[pos.Round]
	return ok && rw.ordered[pos.Source]
}

func (d *DAG) markOrdered(pos types.Position) {
	d.row(pos.Round).ordered[pos.Source] = true
}

// OrderCausalHistory returns, and marks as ordered, every not-yet-ordered
// vertex in the causal history of pos (following strong and weak edges),
// including pos itself, in the deterministic total order: ascending round,
// then ascending source. All DAG-based BFT protocols order a committed
// leader's history this way (the tie-break rule is protocol-local but must
// be deterministic; round/source is the one Sailfish's open-source
// implementation uses).
//
// Edges below the GC horizon or pointing at vertices this party has not yet
// inserted are skipped: callers must only order a leader once its history is
// locally complete (see MissingAncestors). The returned slice is scratch,
// valid until the next OrderCausalHistory call.
func (d *DAG) OrderCausalHistory(pos types.Position) []*types.Vertex {
	start, ok := d.Get(pos)
	if !ok || d.IsOrdered(pos) {
		return nil
	}
	stack := d.beginWalk()
	batch := d.batch[:0]
	d.mark(pos)
	stack = append(stack, start)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		batch = append(batch, v)
		d.Steps += uint64(len(v.StrongEdges) + len(v.WeakEdges))
		for _, edges := range [2][]types.VertexRef{v.StrongEdges, v.WeakEdges} {
			for _, e := range edges {
				p := e.Pos()
				if pv, ok := d.Get(p); ok && !d.IsOrdered(p) && d.mark(p) {
					stack = append(stack, pv)
				}
			}
		}
	}
	slices.SortFunc(batch, func(a, b *types.Vertex) int {
		if a.Round != b.Round {
			return cmp.Compare(a.Round, b.Round)
		}
		return cmp.Compare(a.Source, b.Source)
	})
	for _, v := range batch {
		d.markOrdered(v.Pos())
	}
	d.stack, d.batch = stack[:0], batch
	return batch
}

// Complete reports whether every edge of the vertex at pos (transitively)
// resolves to an inserted vertex or an already-ordered / GC'd one, i.e. the
// causal history is locally complete and ordering it is safe.
func (d *DAG) Complete(pos types.Position) bool {
	return d.Has(pos) && len(d.MissingAncestors(pos)) == 0
}

// MissingAncestors returns the positions referenced (transitively) from pos
// that are not yet inserted, treating ordered and GC'd vertices as
// satisfied. An empty result means Complete(pos). If pos itself is absent,
// it is the single missing position. The returned slice is scratch, valid
// until the next MissingAncestors call.
func (d *DAG) MissingAncestors(pos types.Position) []types.Position {
	missing := d.missing[:0]
	start, ok := d.Get(pos)
	if !ok {
		d.missing = append(missing, pos)
		return d.missing
	}
	stack := d.beginWalk()
	d.mark(pos)
	stack = append(stack, start)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d.Steps += uint64(len(v.StrongEdges) + len(v.WeakEdges))
		for _, edges := range [2][]types.VertexRef{v.StrongEdges, v.WeakEdges} {
			for _, e := range edges {
				p := e.Pos()
				if p.Round < d.minRound || d.IsOrdered(p) || !d.mark(p) {
					continue
				}
				if pv, ok := d.Get(p); ok {
					stack = append(stack, pv)
				} else {
					missing = append(missing, p)
				}
			}
		}
	}
	d.stack, d.missing = stack[:0], missing
	return missing
}

// GC drops all state below round r (exclusive). Vertices below the horizon
// are treated as ordered history.
func (d *DAG) GC(r types.Round) {
	if r <= d.minRound {
		return
	}
	for round := d.minRound; round < r; round++ {
		if rw := d.rounds[round]; rw != nil {
			clear(rw.verts)
			clear(rw.ordered)
			clear(rw.mark)
			rw.count = 0
			d.free = append(d.free, rw)
			delete(d.rounds, round)
		}
	}
	d.minRound = r
}

// MinRound returns the GC horizon.
func (d *DAG) MinRound() types.Round { return d.minRound }
