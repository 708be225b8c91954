package preprocess

import (
	"math/bits"

	"eulerfd/internal/fdset"
)

// laneFormat is one packing of labels into 64-bit words: per lanes of
// width bits each, column c of a row in lane c%per of the row's word
// c/per. The width is derived from the largest label count a relation
// holds (laneFormatFor) and never configured.
type laneFormat struct {
	width  uint   // bits per lane: 8, 16 or 32
	per    uint   // lanes per word, 64/width
	perLog uint   // log2(per)
	lo     uint64 // the low width−1 bits of every lane
	// gather = Σ_{j<per} 2^((width−1)·j). Multiplying a word whose only
	// set bits are lane top bits by it moves lane k's top bit to bit
	// 64−per+k; the partial products land on pairwise distinct bits, so
	// no carry can reach the top per bits.
	gather uint64
	top    uint64 // the top per bits of a word, where gather leaves the flags
	down   uint64 // 2^(64−per): the high word of m·down is m >> per
}

func newLaneFormat(width uint) laneFormat {
	f := laneFormat{width: width, per: 64 / width}
	for f.per>>f.perLog > 1 {
		f.perLog++
	}
	var hi uint64
	for k := uint(0); k < f.per; k++ {
		hi |= 1 << (k*width + width - 1)
		f.gather |= 1 << ((width - 1) * k)
	}
	f.lo = ^hi
	f.top = ^uint64(0) << (64 - f.per)
	f.down = 1 << (64 - f.per)
	return f
}

var (
	lanes8  = newLaneFormat(8)
	lanes16 = newLaneFormat(16)
	lanes32 = newLaneFormat(32)
)

// laneFormatFor returns the narrowest packing that holds labels
// [0, numLabels).
func laneFormatFor(numLabels int) laneFormat {
	switch {
	case numLabels <= 1<<8:
		return lanes8
	case numLabels <= 1<<16:
		return lanes16
	default:
		return lanes32
	}
}

// agreeLanes is the SWAR core of every agree kernel, over a format's
// constants so a kernel can hold them in registers across pairs. A lane
// is equal when its XOR is zero. ((x & lo) + lo) | x has a lane's top
// bit set exactly when the lane is nonzero, and the sum cannot carry
// across lanes because (x & lo) + lo < 2^width; OR-ing lo and
// complementing leaves only the top bits of the zero lanes. The gather
// multiply moves them to the word's top per bits, and each word first
// shifts the flags gathered so far down by per (a multiply, so no
// variable shift pins a register), leaving word k's flags at bit
// 64 − (len(a)−k)·per. Callers shift the result down by 64 − len(a)·per.
//
//fdlint:hotpath
func agreeLanes(a, b []uint64, lo, gather, top, down uint64) uint64 {
	var m uint64
	b = b[:len(a)]
	for k, x := range a {
		x ^= b[k]
		z := ^(((x & lo) + lo) | x | lo)
		m, _ = bits.Mul64(m, down)
		m |= z * gather & top
	}
	return m
}

// pack writes one row's labels into dst, which holds the row's words.
func (f *laneFormat) pack(dst []uint64, labels []int32) {
	clear(dst)
	for c, l := range labels {
		dst[uint(c)>>f.perLog] |= f.place(c, l)
	}
}

// unpack reads one row's labels out of src, its words, into labels.
func (f *laneFormat) unpack(labels []int32, src []uint64) {
	mask := uint64(1)<<f.width - 1
	for c := range labels {
		labels[c] = int32(src[uint(c)>>f.perLog] >> ((uint(c) & (f.per - 1)) * f.width) & mask)
	}
}

// place returns label l shifted into column c's lane of its word.
func (f *laneFormat) place(c int, l int32) uint64 {
	return uint64(uint32(l)) << ((uint(c) & (f.per - 1)) * f.width)
}

// MaskWords returns how many 64-bit mask words the agree kernels write
// per pair of a relation with ncols columns: ⌈ncols/64⌉, and 1 for none.
// Bit i of mask word k is set when the pair agrees on column 64k+i.
func MaskWords(ncols int) int { return max(1, (ncols+63)/64) }

// packedRows is the one row layout of every encoded relation: row r is
// the stride words rows.words[r·stride : (r+1)·stride], its labels packed
// at format f. Lanes past the last column are zero padding, so they
// compare equal; the agree kernels mask them off with lastMask.
type packedRows struct {
	words  []uint64
	stride int
	ncols  int
	f      laneFormat
	// maskWords is MaskWords(ncols). Mask word k covers the width packed
	// words from k·width on (64 lanes); only the last one can be short.
	maskWords int
	// lastMask keeps the real columns of an agree set's last mask word:
	// the low ncols − 64·(mask words − 1) bits.
	lastMask uint64
	// tail is the shift that aligns agreeLanes over the packed words of
	// the last mask word: 64 − (stride − (maskWords−1)·width)·per.
	tail uint
}

func newPackedRows(ncols int, f laneFormat) packedRows {
	rem := ncols % 64
	if rem == 0 && ncols > 0 {
		rem = 64
	}
	p := packedRows{
		stride:    (ncols + int(f.per) - 1) >> f.perLog,
		ncols:     ncols,
		f:         f,
		maskWords: MaskWords(ncols),
		lastMask:  ^uint64(0) >> (64 - rem),
	}
	p.tail = (64 - uint(p.stride-(p.maskWords-1)*int(f.width))*f.per) & 63
	return p
}

// row returns the packed words of row r.
func (p *packedRows) row(r int) []uint64 {
	return p.words[r*p.stride : (r+1)*p.stride : (r+1)*p.stride]
}

// appendRow packs labels as a new last row.
func (p *packedRows) appendRow(labels []int32) {
	n := len(p.words)
	p.words = append(p.words, make([]uint64, p.stride)...)
	p.f.pack(p.words[n:], labels)
}

// put writes label l into column c of row r, whose lane must still be
// zero.
func (p *packedRows) put(r, c int, l int32) {
	p.words[r*p.stride+c>>p.f.perLog] |= p.f.place(c, l)
}

// repacked returns a copy of the first nrows rows packed at format f.
// Labels are unchanged, so every agree mask is too.
func (p *packedRows) repacked(nrows int, f laneFormat) packedRows {
	out := newPackedRows(p.ncols, f)
	out.words = make([]uint64, nrows*out.stride)
	labels := make([]int32, p.ncols)
	for r := 0; r < nrows; r++ {
		p.f.unpack(labels, p.row(r))
		f.pack(out.row(r), labels)
	}
	return out
}

// widen repacks the first nrows rows at the width numLabels labels per
// column need, when that is wider than p's, and reports whether it did.
// Builders start at 8 bits and widen as dictionaries grow, so they stage
// no int32 copy of the relation and repack at most twice.
func (p *packedRows) widen(nrows, numLabels int) bool {
	f := laneFormatFor(numLabels)
	if f.width <= p.f.width {
		return false
	}
	*p = p.repacked(nrows, f)
	return true
}

// label returns the label of row r in column c.
func (p *packedRows) label(r, c int) int32 {
	return p.lane(c).At(int32(r))
}

// lane returns the accessor of column c.
func (p *packedRows) lane(c int) Lane {
	off := min(c>>p.f.perLog, len(p.words))
	return Lane{
		words:  p.words[off:],
		mask:   1<<p.f.width - 1,
		stride: uint16(p.stride),
		shift:  uint8((uint(c) & (p.f.per - 1)) * p.f.width),
	}
}

// agreeMasks writes the agree set of two packed rows as maskWords mask
// words into out, padding lanes masked off. It is the reference
// form of the batched kernels (AgreeWindowWords, agreeRow), which
// run the same loop with the layout's fields held in locals.
//
//fdlint:hotpath
func (p *packedRows) agreeMasks(out, a, b []uint64) {
	f := &p.f
	blk, o := int(f.width), 0
	for len(a) > blk { // a full mask word: 64 lanes, no tail
		out[o] = agreeLanes(a[:blk], b, f.lo, f.gather, f.top, f.down)
		a, b = a[blk:], b[blk:]
		o++
	}
	out[o] = agreeLanes(a, b, f.lo, f.gather, f.top, f.down) >> p.tail & p.lastMask
}

// agreeRow is the row-against-many kernel: for every row o in others it
// writes the agree set of (row, o) as maskWords mask words into
// masks[k·maskWords:], so row stays in registers and bounds checks
// amortize over the batch. row is packed at p's width. masks must have
// length ≥ len(others)·maskWords. It performs no allocation.
//
//fdlint:hotpath
func (p *packedRows) agreeRow(row []uint64, others []int32, masks []uint64) {
	// The layout's fields are copied to locals: the compiler cannot tell
	// that stores to masks leave them unchanged, and would reload them
	// for every pair.
	all, stride, tail, last := p.words, p.stride, p.tail, p.lastMask
	lo, gather, top, down := p.f.lo, p.f.gather, p.f.top, p.f.down
	blk := int(p.f.width) // packed words per full mask word
	row = row[:stride]
	o := 0
	for _, r := range others {
		b := all[int(r)*stride : int(r)*stride+stride]
		a := row
		for len(a) > blk { // a full mask word: 64 lanes, no tail
			masks[o] = agreeLanes(a[:blk], b, lo, gather, top, down)
			a, b = a[blk:], b[blk:]
			o++
		}
		masks[o] = agreeLanes(a, b, lo, gather, top, down) >> tail & last
		o++
	}
}

// agreeSet returns the agree set of two packed rows.
//
//fdlint:hotpath
func (p *packedRows) agreeSet(a, b []uint64) fdset.AttrSet {
	var m [fdset.NumWords]uint64
	p.agreeMasks(m[:p.maskWords], a, b)
	var s fdset.AttrSet
	for k, w := range m[:p.maskWords] {
		s.SetWord(k, w)
	}
	return s
}

// Lane reads one column's labels out of the packed rows. It is the one
// accessor of single labels: partition joins, violation counting,
// validation and the reference oracles all go through it. It fits four
// fields in 32 bytes, so the compiler keeps it in registers across a
// loop instead of copying it through the stack on every read (a row of
// fdset.MaxAttrs columns at 32 bits is 192 words).
type Lane struct {
	words  []uint64 // the packed words, from the column's word of row 0 on
	mask   uint32   // lane width mask
	stride uint16   // words per row
	shift  uint8    // bit offset of the column's lane in its word
}

// At returns the column's label in row r.
//
//fdlint:hotpath
func (l Lane) At(r int32) int32 {
	return int32(uint32(l.words[int(r)*int(l.stride)]>>(l.shift&63)) & l.mask)
}
