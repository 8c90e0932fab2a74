package query

// SliceValue reads per-respondent values from a caller-provided dense
// slice indexed by global respondent, binding no schema columns. Use it
// for measures precomputed over the whole cohort, such as the graded
// quiz outcome counts; the slice must cover the source's respondents.
type SliceValue[T uint8 | float64] struct {
	Vals []T
}

func (v SliceValue[T]) Columns() []int { return nil }

func (v SliceValue[T]) Gather(b *Block, dst []float64, ok []bool) {
	for j, x := range v.Vals[b.Lo : b.Lo+b.N] {
		dst[j], ok[j] = float64(x), true
	}
}

// LikertValue yields a Likert column's level as a float64; unanswered
// rows do not contribute.
type LikertValue struct {
	Col int
}

func (v LikertValue) Columns() []int { return []int{v.Col} }

func (v LikertValue) Gather(b *Block, dst []float64, ok []bool) {
	col := b.U8(v.Col)
	for j := range dst {
		l := col[j]
		dst[j] = float64(l)
		ok[j] = l != 0
	}
}
