package datum

// slabDatums caps the backing arena slabs Alloc carves rows from.
const slabDatums = 4096

// Batch is a resizable run of rows backed by a datum arena. Rows built
// with Alloc share slabs instead of one heap allocation per row; rows
// appended with Append keep whatever backing they arrived with.
//
// Slabs are sized on demand, so a batch allocates in proportion to the
// rows it actually carves: while the row-capacity hint has rows left, a
// new slab holds exactly the remaining hinted rows (up to slabDatums);
// past the hint, or without one, slabs start at a few rows and double
// up to slabDatums. When a slab is exhausted a new one is allocated —
// previously carved rows keep pointing into the old slab, so references
// handed out by Alloc stay valid for the life of the batch.
type Batch struct {
	rows []Row
	slab []Datum
	hint int
}

// NewBatch returns an empty batch with row capacity hint n; n <= 0
// means no hint, and row headers then grow with the rows appended.
func NewBatch(n int) *Batch {
	if n <= 0 {
		return &Batch{}
	}
	return &Batch{rows: make([]Row, 0, n), hint: n}
}

// Len reports the number of rows in the batch.
func (b *Batch) Len() int { return len(b.rows) }

// Row returns the i'th row.
func (b *Batch) Row(i int) Row { return b.rows[i] }

// Rows exposes the underlying row slice (valid until Reset).
func (b *Batch) Rows() []Row { return b.rows }

// Append adds an existing row to the batch without copying it.
func (b *Batch) Append(r Row) { b.rows = append(b.rows, r) }

// Alloc appends a zeroed row of width n carved from the batch arena and
// returns it for the caller to fill.
func (b *Batch) Alloc(n int) Row {
	if len(b.slab)+n > cap(b.slab) {
		b.slab = make([]Datum, 0, b.nextSlab(n))
	}
	lo := len(b.slab)
	// Grow len only — the slab must keep its capacity so later Allocs
	// carve from the same backing array. The returned row is capped so an
	// append to it cannot alias the next carved row.
	b.slab = b.slab[:lo+n]
	r := Row(b.slab[lo : lo+n : lo+n])
	for i := range r {
		r[i] = Datum{}
	}
	b.rows = append(b.rows, r)
	return r
}

// nextSlab sizes the slab that replaces an exhausted one for rows of
// width n: the hinted rows still to come if any, else double the last
// slab (starting at four rows), clamped to slabDatums but never below
// one row.
func (b *Batch) nextSlab(n int) int {
	sz := 2 * cap(b.slab)
	if rest := b.hint - len(b.rows); rest > 0 {
		sz = rest * n
	} else if sz < 4*n {
		sz = 4 * n
	}
	return max(min(sz, slabDatums), n)
}

// Reset empties the batch, retaining row capacity and the current slab
// tail for reuse. Rows previously returned by Alloc or Rows must not be
// used after Reset.
func (b *Batch) Reset() {
	b.rows = b.rows[:0]
	// Keep the slab: Alloc re-carves from its tail, and full slabs are
	// replaced on demand. Rows handed out before Reset are invalidated
	// by contract, so rewinding would alias them; allocate forward only.
}
